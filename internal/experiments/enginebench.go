package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/engine"
)

// This file emits the engine throughput report (BENCH_PR8.json):
// wheel-vs-step host performance on the full-size motionsearch rows
// over the die-stacked HBM backend — the workload the event-wheel
// engine exists for — plus the whole 54-cell golden matrix as one
// aggregate row. Cycle counts are asserted identical between engines
// before any timing is reported; the numbers differ only in host time.

// EngineBenchRow compares the two engines on one configuration.
// Timings are best-of-reps wall clock of the simulation loop alone.
type EngineBenchRow struct {
	Config   string  `json:"config"` // bench/ISA/backend-spec
	Cycles   int64   `json:"cycles"` // identical under both engines
	StepNs   int64   `json:"host.step_wall_ns"`
	WheelNs  int64   `json:"host.wheel_wall_ns"`
	StepCPS  int64   `json:"host.step_cycles_per_sec"`
	WheelCPS int64   `json:"host.wheel_cycles_per_sec"`
	Speedup  float64 `json:"speedup"` // step wall / wheel wall
}

// EngineBenchReport is the exported document.
type EngineBenchReport struct {
	Suite string           `json:"suite"`
	Reps  int              `json:"reps"`
	Rows  []EngineBenchRow `json:"rows"`
}

// engineBenchSpec is the backend of the headline rows: the banked
// die-stacked profile under FR-FCFS, where bank timing leaves the most
// dead cycles for the wheel to skip.
const engineBenchSpec = "sdram/line/frfcfs/hbm"

// row fills in the derived columns from the two raw timings.
func engineBenchRow(config string, cycles, stepNs, wheelNs int64) EngineBenchRow {
	r := EngineBenchRow{Config: config, Cycles: cycles, StepNs: stepNs, WheelNs: wheelNs}
	if stepNs > 0 {
		r.StepCPS = int64(float64(cycles) / (float64(stepNs) / 1e9))
	}
	if wheelNs > 0 {
		r.WheelCPS = int64(float64(cycles) / (float64(wheelNs) / 1e9))
		r.Speedup = float64(stepNs) / float64(wheelNs)
	}
	return r
}

// EngineBench measures both engines. reps runs each cell per engine
// and keeps the fastest wall clock (the usual best-of discipline for
// host timing); progress, if non-nil, is called before each
// configuration's measurement.
func EngineBench(reps int, progress func(SimKey)) *EngineBenchReport {
	if reps < 1 {
		reps = 1
	}
	rep := &EngineBenchReport{Suite: "motionsearch-full + golden-small", Reps: reps}

	// Headline rows: full-size motionsearch, each ISA × memory-system
	// variant of the golden matrix, on the HBM backend. A runner per
	// variant, so only one full-size stream is held at a time.
	for _, vk := range benchVariants {
		key := SimKey{Bench: "motionsearch", Variant: vk.v, Mem: vk.kind, L2Lat: baseLat, DRAM: engineBenchSpec}
		if progress != nil {
			progress(key)
		}
		rep.Rows = append(rep.Rows, bestOf(NewRunner(), reps,
			fmt.Sprintf("%s/%s/%s", key.Bench, key.Variant, key.DRAM), []SimKey{key}))
	}

	// Aggregate row: the full golden matrix (the 54 pinned rows) under
	// each engine, summing per-cell simulation wall clock.
	golden := NewRunnerWith(GoldenSuite())
	rep.Rows = append(rep.Rows, bestOf(golden, reps, "golden-matrix/54-rows", goldenMatrix(golden.Benchmarks())))
	return rep
}

// bestOf times cells under each engine reps times — every repetition
// on a fresh memo over base's traces, so nothing is recalled and no
// stream is generated twice — and keeps each engine's fastest total of
// SimResult.HostNs, the simulation loop alone. Engines that disagree on
// the cycle count are a bug, not a measurement.
func bestOf(base *Runner, reps int, config string, cells []SimKey) EngineBenchRow {
	var cycles int64
	best := [2]int64{} // per engine.Mode
	for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
		for i := 0; i < reps; i++ {
			c := base.child()
			c.Engine = mode
			var total, cyc int64
			for _, k := range cells {
				res := c.simKey(k)
				total += res.HostNs
				cyc += res.Cycles()
			}
			if best[mode] == 0 || total < best[mode] {
				best[mode] = total
			}
			if cycles == 0 {
				cycles = cyc
			} else if cyc != cycles {
				panic(fmt.Sprintf("experiments: engine bench %s: %v cycles %d != %d — engines diverged",
					config, mode, cyc, cycles))
			}
		}
	}
	return engineBenchRow(config, cycles, best[engine.Step], best[engine.Wheel])
}

// WriteJSON writes the report as indented JSON.
func (rep *EngineBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
