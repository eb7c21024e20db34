package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// sweepOptions mirror the parallelism flag and what else the command
// line chose; resolveSweep validates them into a runPlan so flag
// handling is testable without flag.Parse (the same pattern as momsim's
// resolve).
type sweepOptions struct {
	J         int      // sweep worker goroutines (0 = one per CPU)
	Selectors []string // selector flags given a non-zero value
	Backend   bool     // any of -dram/-dmap/.../-mshr/-pf/-va was set

	// Outputs are the files the run writes: a selector's file argument
	// and the two profiles.
	Outputs []stats.Output
}

// runPlan is a validated command line: runner settings and the one
// selector to run (nil = the default run).
type runPlan struct {
	Workers  int
	Selector *selector
}

// resolveSweep validates the options. Every combination that would
// drop a flag or a file on the floor is an error: two selectors, backend
// flags with a selector that fixes its own, or two outputs to one file.
func resolveSweep(o sweepOptions) (runPlan, error) {
	if o.J < 0 {
		return runPlan{}, fmt.Errorf("-j must not be negative (got %d; 0 = one worker per CPU)", o.J)
	}
	p := runPlan{Workers: experiments.AutoWorkers(o.J)}
	if len(o.Selectors) > 1 {
		return runPlan{}, fmt.Errorf("-%s and -%s each select the whole run; give one", o.Selectors[0], o.Selectors[1])
	}
	if len(o.Selectors) == 1 {
		if p.Selector = selectorByName(o.Selectors[0]); p.Selector == nil {
			return runPlan{}, fmt.Errorf("unknown selector -%s", o.Selectors[0])
		}
	}
	if sel := p.Selector; sel != nil && sel.owns != "" && o.Backend {
		return runPlan{}, fmt.Errorf("-%s %s", sel.name, sel.owns)
	}
	if err := stats.DistinctOutputs(o.Outputs...); err != nil {
		return runPlan{}, err
	}
	return p, nil
}
