package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// session is what a selector runs against: the configured runner, and
// whether the command line set backend flags (the default run then
// skips the sweeps that own theirs).
type session struct {
	r       *experiments.Runner
	backend bool
}

// over builds a runner over another suite with the session's engine,
// workers and progress output.
func (x *session) over(suite []kernels.Benchmark) *experiments.Runner {
	rx := experiments.NewRunnerWith(suite)
	rx.Engine, rx.Workers, rx.Progress = x.r.Engine, x.r.Workers, x.r.Progress
	return rx
}

// argKind is what a selector's flag takes.
type argKind int

const (
	noArg   argKind = iota // -headline
	numArg                 // -fig 9
	fileArg                // -cpisweep out.json
)

// selector is one "run just this" flag. The table below is the single
// declaration of them: it generates the flags, the refusal of backend
// flags a selector would ignore, the dispatch, and the default run.
type selector struct {
	name string
	arg  argKind
	help string
	// owns says why explicit -dram/-mshr/... flags are refused: the
	// selector fixes its own backends and would silently ignore them.
	// Empty for selectors that run on whatever backend was chosen.
	owns string
	// inDefault puts the selector in the no-selector run, in table
	// order, after the paper's own tables and figures.
	inDefault bool
	run       func(x *session, arg string) error
}

const ownBackends = "compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf"

var selectors = []selector{
	{name: "fig", arg: numArg, help: "regenerate a single figure (3, 6, 7, 9, 10, 11)",
		run: func(x *session, n string) error { printFigure(x.r, n); return nil }},
	{name: "table", arg: numArg, help: "regenerate a single table (1..4)",
		run: func(x *session, n string) error { printTable(x.r, n); return nil }},
	{name: "dramsweep", help: "print only the fixed-vs-SDRAM sweep", owns: ownBackends, inDefault: true,
		run: func(x *session, _ string) error {
			fmt.Print(experiments.RenderDRAMSweep(experiments.DRAMSweep(x.r)))
			fmt.Println()
			fmt.Print(experiments.RenderChannelScaling(experiments.DRAMChannelScaling(x.r)))
			return nil
		}},
	{name: "mshrsweep", help: "print only the blocking-vs-MSHR pipeline sweep", owns: ownBackends, inDefault: true,
		run: sweep(experiments.MSHRSweep, experiments.RenderMSHRSweep)},
	{name: "pfsweep", help: "print only the stream-prefetcher sweep (streaming kernels)", owns: ownBackends, inDefault: true,
		run: sweep(experiments.PFSweep, experiments.RenderPFSweep)},
	{name: "rpsweep", help: "print only the per-bank row-policy sweep (streaming kernels)", inDefault: true,
		owns: "compares its own backend configurations; drop -dram/-dmap/-dsched/-rp/-mshr/-pf",
		run:  sweep(experiments.RPSweep, experiments.RenderRPSweep)},
	{name: "ifsweep", help: "print only the multi-tenant interference sweep (FR-FCFS vs QoS scheduling)", owns: ownBackends,
		run: sweep(experiments.IFSweep, experiments.RenderIFSweep)},
	{name: "vasweep", help: "print only the placement-policy × kernel-mix matrix under virtual address translation",
		owns: "compares its own placement policies; drop -dram/-dmap/-dsched/-mshr/-pf/-va",
		run:  sweep(experiments.VASweep, experiments.RenderVASweep)},
	{name: "latdist", help: "print only the ddr-vs-hbm read-latency distribution table", owns: ownBackends, inDefault: true,
		run: sweep(experiments.LatDist, experiments.RenderLatDist)},
	{name: "cpisweep", arg: fileArg, help: "print the CPI-stack cycle-attribution table and write the report to this file as JSON",
		owns: "climbs its own backend ladder; drop -dram/-dmap/-dsched/-mshr/-pf",
		run: func(x *session, path string) error {
			// The attribution table wants the streaming kernel next to the
			// paper suite — its stack is the memory-dominated one — so the
			// sweep runs over the extended suite on its own runner.
			rep := experiments.CPISweep(x.over(kernels.Extended()), "extended")
			if err := stats.WriteFile(path, rep.WriteJSON); err != nil {
				return err
			}
			fmt.Print(experiments.RenderCPISweep(rep))
			fmt.Printf("wrote %d CPI-stack rows to %s\n", len(rep.Rows), path)
			return nil
		}},
	{name: "headline", help: "print only the headline summary", inDefault: true,
		run: sweep(experiments.ComputeHeadline, experiments.Headline.Render)},
	{name: "statsjson", arg: fileArg, help: "write the golden-matrix registry snapshots to this file as JSON and exit",
		owns: "runs the pinned golden matrix; drop -dram/-dmap/-dsched/-mshr/-pf",
		run: func(x *session, path string) error {
			rep := experiments.ComputeBenchReport(x.over(experiments.GoldenSuite()), "golden-small")
			if err := stats.WriteFile(path, rep.WriteJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %d configuration snapshots to %s\n", len(rep.Configs), path)
			return nil
		}},
}

// selectorByName finds a table row, or nil.
func selectorByName(name string) *selector {
	for i := range selectors {
		if selectors[i].name == name {
			return &selectors[i]
		}
	}
	return nil
}

// register declares the selector's flag; its zero value means "not
// selected".
func (s *selector) register() {
	switch s.arg {
	case noArg:
		flag.Bool(s.name, false, s.help)
	case numArg:
		flag.Int(s.name, 0, s.help)
	case fileArg:
		flag.String(s.name, "", s.help)
	}
}

// sweep is the run function of a selector that computes rows and
// prints their rendering.
func sweep[T any](run func(*experiments.Runner) T, render func(T) string) func(*session, string) error {
	return func(x *session, _ string) error {
		fmt.Print(render(run(x.r)))
		return nil
	}
}

// paperOrder is the paper's own sequence of tables and figures, the
// head of the default run.
var paperOrder = []struct {
	figure bool
	n      string
}{{false, "1"}, {false, "2"}, {false, "3"}, {true, "3"}, {true, "6"}, {true, "7"}, {false, "4"}, {true, "9"}, {true, "10"}, {true, "11"}}

// runDefault regenerates everything: the paper's tables and figures,
// then every inDefault selector in table order, a blank line between
// items.
func runDefault(x *session) error {
	items := 0
	gap := func() {
		if items > 0 {
			fmt.Println()
		}
		items++
	}
	for _, p := range paperOrder {
		gap()
		if p.figure {
			printFigure(x.r, p.n)
		} else {
			printTable(x.r, p.n)
		}
	}
	// The sweeps fix their own backend configurations; with explicit
	// dram flags they would silently disregard them, so skip them.
	if x.backend {
		fmt.Fprintln(os.Stderr, "momexp: skipping the DRAM, MSHR, prefetch and row-policy sweeps (they compare their own backend configurations)")
	}
	for _, s := range selectors {
		if !s.inDefault || x.backend && s.owns != "" {
			continue
		}
		gap()
		if err := s.run(x, ""); err != nil {
			return err
		}
	}
	return nil
}
