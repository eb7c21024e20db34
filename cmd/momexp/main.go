// Command momexp regenerates the paper's evaluation: every table and
// figure of "Three-Dimensional Memory Vectorization for High Bandwidth
// Media Memory Systems" (MICRO-35), over the built-in benchmark suite.
//
// Usage:
//
//	momexp              regenerate everything
//	momexp -fig 9       one figure (3, 6, 7, 9, 10, 11)
//	momexp -table 4     one table (1, 2, 3, 4)
//	momexp -dramsweep   the fixed-vs-SDRAM main-memory comparison
//	momexp -mshrsweep   the blocking-vs-MSHR non-blocking pipeline sweep
//	momexp -pfsweep     the stream-prefetcher sweep over the streaming kernels
//	momexp -rpsweep     the per-bank row-policy sweep (open/close/timer/history)
//	momexp -ifsweep     the multi-tenant interference sweep (FR-FCFS vs QoS)
//	momexp -vasweep     the placement-policy × mix matrix under address translation
//	momexp -latdist     the ddr-vs-hbm read-latency distribution table
//	momexp -cpisweep BENCH_PR10.json  print the CPI-stack table and write the report as JSON
//	momexp -headline    the abstract's summary numbers
//	momexp -statsjson BENCH_PR6.json  write the golden-matrix registry snapshots as JSON
//	momexp -enginebench BENCH_PR8.json [-reps 3]  time both engines and write the report as JSON
//	momexp -dram sdram  rerun the evaluation over the banked SDRAM model
//	momexp -mshr 8      ... with an 8-entry MSHR file (non-blocking pipeline; 0 or 1 = the blocking model)
//	momexp -mshr 16 -pf 8  ... with a stream prefetcher riding the MSHR batch
//	momexp -dram sdram -rp history  ... under the live/dead row predictor
//	momexp -engine wheel -j 8  any of the above on the event-wheel engine, cells across 8 workers
//	momexp -q           suppress per-simulation progress
//	momexp -cpuprofile cpu.pprof -memprofile mem.pprof  profile the simulator itself
//
// The selectors (-fig through -enginebench, one per run, in the order of
// the table in selectors.go) pick what to print; every sweep fixes its
// own backends and refuses explicit -dram/-mshr/... flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dram"
	"repro/internal/dram/policy"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	for i := range selectors {
		selectors[i].register()
	}
	dramName := flag.String("dram", "", "main-memory backend for all simulations: fixed, sdram (default: seed flat latency)")
	dmap := flag.String("dmap", "line", "sdram address mapping: line, bank, row")
	dsched := flag.String("dsched", "frfcfs", "sdram scheduler: fcfs, frfcfs")
	dprof := flag.String("dprof", "", "sdram timing profile: ddr (commodity DIMM), hbm (die-stacked)")
	dchan := flag.Int("dchan", 0, "sdram channel count override (power of two; 0 = profile default)")
	dwq := flag.Int("dwq", 0, "sdram write-queue drain threshold override (0 = profile default)")
	dwql := flag.Int("dwql", 0, "sdram write-queue partial-drain low watermark (0 = profile default, -1 = drain fully)")
	dwqi := flag.Int("dwqi", 0, "sdram idle-bus opportunistic write-drain gap in cycles (0 = profile default, -1 = off)")
	dwin := flag.Int("dwin", 0, "sdram FR-FCFS reorder-window override (0 = profile default)")
	rp := flag.String("rp", "", "sdram per-bank row policy: open, close, timer[:<idle>], history")
	mshr := flag.Int("mshr", 0, "MSHR count for the non-blocking memory pipeline (0 or 1 = the blocking model)")
	pf := flag.Int("pf", 0, "stream-prefetcher stream-table entries (0 = off; needs -mshr >= 2)")
	pfd := flag.Int("pfd", 0, "stream-prefetcher degree: lines kept in flight per stream (0 = default 4)")
	pfq := flag.Int("pfq", 0, "sdram per-channel cap on prefetch reads in flight (0 = half the read queue)")
	va := flag.String("va", "", "virtual address translation with this placement policy for all simulations: first, color, colo (needs -dram)")
	engineName := flag.String("engine", "", "simulation engine for every run: step (per-cycle oracle) or wheel (event-driven, bit-identical)")
	jWorkers := flag.Int("j", 0, "worker goroutines the sweeps shard cells across (0 = one per CPU, 1 = serial)")
	reps := flag.Int("reps", 0, "-enginebench repetitions per cell, best-of (0 = default 3)")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a host heap profile, taken at exit, to this file")
	flag.Parse()

	// Note the selectors given, and the explicitly-set knobs the chosen
	// backend would silently ignore (shared policy with momsim).
	opts := sweepOptions{Engine: *engineName, J: *jWorkers, Reps: *reps}
	dramKnobSet, dramSet, mshrSet, pfSet, vaSet := false, false, false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "dmap", "dsched", "dprof", "dchan", "dwq", "dwql", "dwqi", "dwin", "rp", "pfq":
			dramKnobSet = true
		case "dram":
			dramSet = true
		case "mshr":
			mshrSet = true
		case "pf", "pfd":
			pfSet = true
		case "va":
			vaSet = true
		}
		if selectorByName(f.Name) != nil && f.Value.String() != f.DefValue {
			opts.Selectors = append(opts.Selectors, f.Name)
		}
	})
	opts.Backend = dramSet || dramKnobSet || mshrSet || pfSet || vaSet
	plan, err := resolveSweep(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(2)
	}

	r := experiments.NewRunner()
	r.Engine = plan.Mode
	r.Workers = plan.Workers
	if !*quiet {
		r.Progress = func(k experiments.SimKey) {
			fmt.Fprintf(os.Stderr, "sim %-12s %-6s %-18s L2=%d %s\n", k.Bench, k.Variant, k.Mem, k.L2Lat, k.DRAM)
		}
	}
	switch *va {
	case "", "first", "color", "colo":
	default:
		fmt.Fprintf(os.Stderr, "momexp: unknown placement policy %q (want first, color, colo)\n", *va)
		os.Exit(2)
	}
	if vaSet && *dramName == "" {
		fmt.Fprintln(os.Stderr, "momexp: -va requires -dram fixed or -dram sdram")
		os.Exit(2)
	}
	if err := dram.ValidateFlagCombo(*dramName, dramKnobSet, false); err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(2)
	}
	if mshrSet && *dramName == "" {
		// The seed's flat model has no spec to carry the knob; "fixed"
		// is its bit-identical spec form.
		fmt.Fprintln(os.Stderr, "momexp: -mshr requires -dram fixed or -dram sdram")
		os.Exit(2)
	}
	if pfSet && *dramName == "" {
		fmt.Fprintln(os.Stderr, "momexp: -pf/-pfd require -dram fixed or -dram sdram (and -mshr >= 2)")
		os.Exit(2)
	}
	if *dramName != "" {
		// An unset -rp leaves the knob zero (the preset's static open);
		// an explicit value, "open" included, must parse.
		var rpSpec policy.Spec
		if *rp != "" {
			var err error
			if rpSpec, err = policy.Parse(*rp); err != nil {
				fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
				os.Exit(2)
			}
		}
		knobs := dram.Knobs{Channels: *dchan, WQDrain: *dwq, Window: *dwin,
			WQLow: *dwql, WQIdle: int64(*dwqi), MSHRs: *mshr,
			PFStreams: *pf, PFDegree: *pfd, PFQ: *pfq, RP: rpSpec, VA: *va}
		// One build call validates backend kind, mapping, scheduler,
		// profile and knobs; the runner would only panic on a bad spec
		// much later.
		if _, err := dram.BuildOpts(*dramName, *dmap, *dsched, *dprof, knobs, 100); err != nil {
			fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
			os.Exit(2)
		}
		r.DRAMSpec = dram.FormatSpecOpts(*dramName, *dmap, *dsched, *dprof, knobs)
	}

	stopProfiles, err := stats.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	x := &session{r: r, reps: plan.Reps, backend: opts.Backend}
	if sel := plan.Selector; sel != nil {
		err = sel.run(x, flag.Lookup(sel.name).Value.String())
	} else {
		err = runDefault(x)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(1)
	}

	if simNs, simCycles := r.HostPerf(); !*quiet && simNs > 0 {
		streams, insts, static, bytes := r.TraceStats()
		fmt.Fprintf(os.Stderr, "host: %s engine, %d workers, %.3fs simulating, %.0f simulated cycles/s; %d traces generated once each, %d instructions over %d static, %.1f B/inst, %.0f MB held\n",
			plan.Mode, plan.Workers, float64(simNs)/1e9, float64(simCycles)/(float64(simNs)/1e9),
			streams, insts, static, float64(bytes)/float64(insts), float64(bytes)/1e6)
	}
}

// figures are the paper's figures by number, as -fig spells it.
var figures = map[string]func(*experiments.Runner) *experiments.Figure{
	"3":  experiments.Figure3,
	"6":  experiments.Figure6,
	"7":  experiments.Figure7,
	"9":  experiments.Figure9,
	"10": experiments.Figure10,
	"11": experiments.Figure11,
}

func printFigure(r *experiments.Runner, n string) {
	fig, ok := figures[n]
	if !ok {
		fmt.Fprintf(os.Stderr, "momexp: unknown figure %s\n", n)
		os.Exit(2)
	}
	fmt.Print(fig(r).Render())
}

func printTable(r *experiments.Runner, n string) {
	switch n {
	case "1":
		fmt.Print(experiments.RenderTable1(experiments.Table1(r)))
	case "2":
		fmt.Print(experiments.Table2())
	case "3":
		fmt.Print(experiments.Table3())
	case "4":
		fmt.Print(experiments.RenderTable4(experiments.Table4(r)))
	default:
		fmt.Fprintf(os.Stderr, "momexp: unknown table %s\n", n)
		os.Exit(2)
	}
}
