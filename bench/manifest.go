package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is BENCHMARK.json relative to the repository root, the
// directory `go run ./bench` is started from.
const manifestPath = "BENCHMARK.json"

// manifest is what the benchmark reads of BENCHMARK.json, the only
// declaration of the workload names, the metric names, their units and
// the regression bounds: the benchmark emits exactly what it lists, and
// a declared metric with no measurement behind it is a failed check.
type manifest struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl is one declared metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before
// `compare` calls it a regression; per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark manifest (run from the repository root): %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &m, nil
}
