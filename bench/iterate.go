package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
)

// iteration is the record of one pass over a workload's stages on a
// fresh Runner.
type iteration struct {
	WallS    float64 `json:"wall_s"`
	SimS     float64 `json:"sim_s"` // Runner.HostPerf: the simulation loops alone
	MCycles  float64 `json:"mcycles"`
	AllocMB  float64 `json:"alloc_mb"`
	MallocsK float64 `json:"mallocs_k"`
	// Cells counts operations: one per simulation cell started, plus
	// one per stage that failed before starting any.
	Cells    int      `json:"cells"`
	Failures []string `json:"failures,omitempty"`
	// Digest is the SHA-256 of every rendered stage; CheckDigest covers
	// the part the workload's ref comparison is about.
	Digest      string `json:"digest"`
	CheckDigest string `json:"check_digest"`

	PaperGapPts         float64 `json:"paper_gap_pts,omitempty"`
	TenantMaxSlowdown   float64 `json:"tenant_max_slowdown,omitempty"`
	TenantJain          float64 `json:"tenant_jain,omitempty"`
	TenantBytesPerCycle float64 `json:"tenant_bytes_per_cycle,omitempty"`

	stages []stageTime
}

// stageTime is when one stage computed and rendered, for the traced
// pass's spans.
type stageTime struct {
	name                 string
	start, rendered, end time.Time
}

// runIteration runs every stage of w once. A panic inside a stage is
// recovered, named with the cell that was running, and counted as one
// failed operation; the remaining stages still run.
func runIteration(w workload, suite []kernels.Benchmark) iteration {
	if w.paperOnly {
		suite = suite[:paperKernels]
	}
	var it iteration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	r := experiments.NewRunnerWith(suite)
	r.Engine, r.Workers = w.engine, 1
	var cell experiments.SimKey
	r.Progress = func(k experiments.SimKey) { it.Cells++; cell = k }
	all, check := sha256.New(), sha256.New()
	for _, st := range w.stages {
		cells := it.Cells
		out, tm, err := runStage(st, r, &it)
		if err != nil {
			if it.Cells == cells {
				it.Cells++
			}
			it.Failures = append(it.Failures, fmt.Sprintf("%s: stage %s, last cell %s/%s/%s/L2=%d/%s: %v",
				w.name, st.name, cell.Bench, cell.Variant, cell.Mem, cell.L2Lat, cell.DRAM, err))
			continue
		}
		it.stages = append(it.stages, tm)
		all.Write([]byte(out))
		if w.check == "" || w.check == st.name {
			check.Write([]byte(out))
		}
	}

	it.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	ns, cycles := r.HostPerf()
	it.SimS = float64(ns) / 1e9
	it.MCycles = float64(cycles) / 1e6
	it.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	it.MallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	it.Digest = hex.EncodeToString(all.Sum(nil))
	it.CheckDigest = hex.EncodeToString(check.Sum(nil))
	return it
}

func runStage(st stage, r *experiments.Runner, it *iteration) (out string, tm stageTime, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	tm = stageTime{name: st.name, start: time.Now()}
	render := st.run(r, it)
	tm.rendered = time.Now()
	out = render()
	tm.end = time.Now()
	return out, tm, nil
}

// childReport is what one child process prints, as one JSON line, for
// the parent to aggregate.
type childReport struct {
	SetupS      float64     `json:"setup_s"`
	PeakRSSMB   float64     `json:"peak_rss_mb"`
	Timed       []iteration `json:"timed"`
	Attempted   int         `json:"attempted"`
	Failures    []string    `json:"failures,omitempty"`
	Digest      string      `json:"digest"`
	CheckDigest string      `json:"check_digest"`
	PaperGapPts float64     `json:"paper_gap_pts,omitempty"`

	// The traced pass only.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// measure is the untraced child: one warm-up iteration, whose end is
// the end of set-up, then iters timed iterations back to back. The
// count is fixed by the caller, never by the clock: how many
// iterations a process has run decides its heap and its resident set,
// so a count that followed the host's speed would move peak_rss_mb
// with the host's mood.
func measure(w workload, suite []kernels.Benchmark, spawned time.Time, iters int) childReport {
	warm := runIteration(w, suite)
	rep := childReport{
		SetupS:      time.Since(spawned).Seconds(),
		Attempted:   warm.Cells + 1, // + the digest check below
		Failures:    warm.Failures,
		Digest:      warm.Digest,
		CheckDigest: warm.CheckDigest,
		PaperGapPts: warm.PaperGapPts,
	}
	for n := 0; n < iters; n++ {
		it := runIteration(w, suite)
		rep.Attempted += it.Cells
		rep.Failures = append(rep.Failures, it.Failures...)
		if it.Digest != warm.Digest {
			rep.Digest = "unstable"
		}
		rep.Timed = append(rep.Timed, it)
	}
	if rep.Digest == "unstable" {
		rep.Failures = append(rep.Failures, w.name+": output_digest differs between iterations of one process")
	}
	rep.PeakRSSMB = peakRSSMB()
	return rep
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
