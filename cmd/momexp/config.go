package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// sweepOptions mirror the engine/parallelism flags and what else the
// command line chose; resolveSweep validates them into a runPlan so
// flag handling is testable without flag.Parse (the same pattern as
// momsim's resolve).
type sweepOptions struct {
	Engine    string   // simulation engine: step (per-cycle oracle) or wheel
	J         int      // sweep worker goroutines (0 = one per CPU)
	Reps      int      // -enginebench repetitions per cell (0 = default 3)
	Selectors []string // selector flags given a non-zero value
	Backend   bool     // any of -dram/-dmap/.../-mshr/-pf/-va was set
}

// runPlan is a validated command line: runner settings and the one
// selector to run (nil = the default run).
type runPlan struct {
	Mode     engine.Mode
	Workers  int
	Reps     int
	Selector *selector
}

// resolveSweep validates the options. Every combination that would
// drop a flag on the floor is an error: two selectors, backend flags
// with a selector that fixes its own, -reps without the benchmark that
// reads it, -engine or -j with the benchmark that owns both.
func resolveSweep(o sweepOptions) (runPlan, error) {
	mode, err := engine.ParseMode(o.Engine)
	if err != nil {
		return runPlan{}, err
	}
	if o.J < 0 {
		return runPlan{}, fmt.Errorf("-j must not be negative (got %d; 0 = one worker per CPU)", o.J)
	}
	if o.Reps < 0 {
		return runPlan{}, fmt.Errorf("-reps must not be negative (got %d)", o.Reps)
	}
	p := runPlan{Mode: mode, Workers: experiments.AutoWorkers(o.J), Reps: o.Reps}
	if p.Reps == 0 {
		p.Reps = 3
	}
	if len(o.Selectors) > 1 {
		return runPlan{}, fmt.Errorf("-%s and -%s each select the whole run; give one", o.Selectors[0], o.Selectors[1])
	}
	if len(o.Selectors) == 1 {
		if p.Selector = selectorByName(o.Selectors[0]); p.Selector == nil {
			return runPlan{}, fmt.Errorf("unknown selector -%s", o.Selectors[0])
		}
	}
	sel := p.Selector
	if sel != nil && sel.owns != "" && o.Backend {
		return runPlan{}, fmt.Errorf("-%s %s", sel.name, sel.owns)
	}
	bench := sel != nil && sel.bench
	switch {
	case bench && o.Engine != "":
		return runPlan{}, fmt.Errorf("-%s always measures both engines; drop -engine", sel.name)
	case bench && o.J != 0:
		return runPlan{}, fmt.Errorf("-%s times one cell at a time; drop -j", sel.name)
	case !bench && o.Reps != 0:
		return runPlan{}, fmt.Errorf("-reps only applies to -enginebench")
	}
	return p, nil
}
