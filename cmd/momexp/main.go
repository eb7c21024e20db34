// Command momexp regenerates the paper's evaluation: every table and
// figure of "Three-Dimensional Memory Vectorization for High Bandwidth
// Media Memory Systems" (MICRO-35), over the built-in benchmark suite.
//
// Usage:
//
//	momexp              regenerate everything
//	momexp -fig 9       one figure (3, 6, 7, 9, 10, 11)
//	momexp -table 4     one table (1, 2, 3, 4)
//	momexp -headline    the abstract's summary numbers
//	momexp -dramsweep   the fixed-vs-SDRAM main-memory comparison
//	momexp -mshrsweep   the blocking-vs-MSHR non-blocking pipeline sweep
//	momexp -pfsweep     the stream-prefetcher sweep over the streaming kernels
//	momexp -rpsweep     the per-bank row-policy sweep (open/close/timer/history)
//	momexp -ifsweep     the multi-tenant interference sweep (FR-FCFS vs QoS)
//	momexp -vasweep     the placement-policy × mix matrix under address translation
//	momexp -latdist     the ddr-vs-hbm read-latency distribution table
//	momexp -cpisweep BENCH_PR10.json  print the CPI-stack table and write the report as JSON
//	momexp -statsjson BENCH_PR6.json  write the golden-matrix registry snapshots as JSON
//	momexp -dram sdram  rerun the evaluation over the banked SDRAM model
//	momexp -mshr 8      ... with an 8-entry MSHR file (non-blocking pipeline)
//	momexp -mshr 16 -pf 8  ... with a stream prefetcher riding the MSHR batch
//	momexp -dram sdram -rp history  ... under the live/dead row predictor
//	momexp -q           suppress per-simulation progress
//	momexp -cpuprofile cpu.pprof -memprofile mem.pprof  profile the simulator itself
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dram"
	"repro/internal/dram/policy"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/stats"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate a single figure (3, 6, 7, 9, 10, 11)")
	table := flag.Int("table", 0, "regenerate a single table (1..4)")
	headline := flag.Bool("headline", false, "print only the headline summary")
	dramsweep := flag.Bool("dramsweep", false, "print only the fixed-vs-SDRAM sweep")
	mshrsweep := flag.Bool("mshrsweep", false, "print only the blocking-vs-MSHR pipeline sweep")
	pfsweep := flag.Bool("pfsweep", false, "print only the stream-prefetcher sweep (streaming kernels)")
	rpsweep := flag.Bool("rpsweep", false, "print only the per-bank row-policy sweep (streaming kernels)")
	ifsweep := flag.Bool("ifsweep", false, "print only the multi-tenant interference sweep (FR-FCFS vs QoS scheduling)")
	vasweep := flag.Bool("vasweep", false, "print only the placement-policy × kernel-mix matrix under virtual address translation")
	latdist := flag.Bool("latdist", false, "print only the ddr-vs-hbm read-latency distribution table")
	cpisweep := flag.String("cpisweep", "", "print the CPI-stack cycle-attribution table and write the report to this file as JSON")
	statsjson := flag.String("statsjson", "", "write the golden-matrix registry snapshots to this file as JSON and exit")
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
	mshr := flag.Int("mshr", 0, "MSHR count for the non-blocking memory pipeline (0 = blocking model)")
	pf := flag.Int("pf", 0, "stream-prefetcher stream-table entries (0 = off; needs -mshr >= 2)")
	pfd := flag.Int("pfd", 0, "stream-prefetcher degree: lines kept in flight per stream (0 = default 4)")
	pfq := flag.Int("pfq", 0, "sdram per-channel cap on prefetch reads in flight (0 = half the read queue)")
	va := flag.String("va", "", "virtual address translation with this placement policy for all simulations: first, color, colo (needs -dram)")
	engineName := flag.String("engine", "", "simulation engine for every run: step (per-cycle oracle) or wheel (event-driven, bit-identical)")
	jWorkers := flag.Int("j", 0, "worker goroutines the sweeps shard cells across (0 = one per CPU, 1 = serial)")
	enginebench := flag.String("enginebench", "", "measure wheel-vs-step host throughput and write the report to this file as JSON")
	reps := flag.Int("reps", 0, "-enginebench repetitions per cell, best-of (0 = default 3)")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a host heap profile, taken at exit, to this file")
	flag.Parse()

	mode, workers, benchReps, err := resolveSweep(sweepOptions{Engine: *engineName, J: *jWorkers, Reps: *reps})
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(2)
	}

	r := experiments.NewRunner()
	r.Engine = mode
	r.Workers = workers
	if !*quiet {
		r.Progress = func(k experiments.SimKey) {
			fmt.Fprintf(os.Stderr, "sim %-12s %-6s %-18s L2=%d %s\n", k.Bench, k.Variant, k.Mem, k.L2Lat, k.DRAM)
		}
	}
	// Reject explicitly-set knobs the chosen backend would silently
	// ignore (shared policy with momsim).
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
	})
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
	// The sweeps cross their own backend configurations; explicit dram
	// flags would be silently ignored there, so reject the combination.
	if *dramsweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -dramsweep compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *mshrsweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -mshrsweep compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *pfsweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -pfsweep compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *rpsweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -rpsweep compares its own backend configurations; drop -dram/-dmap/-dsched/-rp/-mshr/-pf")
		os.Exit(2)
	}
	if *ifsweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -ifsweep compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *vasweep && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -vasweep compares its own placement policies; drop -dram/-dmap/-dsched/-mshr/-pf/-va")
		os.Exit(2)
	}
	if *latdist && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -latdist compares its own backend configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *cpisweep != "" && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -cpisweep climbs its own backend ladder; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *statsjson != "" && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -statsjson runs the pinned golden matrix; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *enginebench != "" && (dramSet || dramKnobSet || mshrSet || pfSet || vaSet) {
		fmt.Fprintln(os.Stderr, "momexp: -enginebench compares the engines on its own configurations; drop -dram/-dmap/-dsched/-mshr/-pf")
		os.Exit(2)
	}
	if *enginebench != "" && *engineName != "" {
		fmt.Fprintln(os.Stderr, "momexp: -enginebench always measures both engines; drop -engine")
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

	switch {
	case *enginebench != "":
		var progress func(experiments.SimKey)
		if !*quiet {
			progress = r.Progress
		}
		rep := experiments.EngineBench(benchReps, progress)
		fh, err := os.Create(*enginebench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(fh); err == nil {
			err = fh.Close()
		} else {
			fh.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: writing %s: %v\n", *enginebench, err)
			os.Exit(1)
		}
		for _, row := range rep.Rows {
			fmt.Printf("%-44s %12d cycles  step %8.3fms  wheel %8.3fms  %5.2fx\n",
				row.Config, row.Cycles, float64(row.StepNs)/1e6, float64(row.WheelNs)/1e6, row.Speedup)
		}
		fmt.Printf("wrote %d engine-bench rows (best of %d reps) to %s\n", len(rep.Rows), rep.Reps, *enginebench)
	case *statsjson != "":
		var progress func(experiments.SimKey)
		if !*quiet {
			progress = r.Progress
		}
		rep := experiments.ComputeBenchReport(progress)
		fh, err := os.Create(*statsjson)
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(fh); err == nil {
			err = fh.Close()
		} else {
			fh.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: writing %s: %v\n", *statsjson, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d configuration snapshots to %s\n", len(rep.Configs), *statsjson)
	case *headline:
		fmt.Print(experiments.ComputeHeadline(r).Render())
	case *dramsweep:
		fmt.Print(experiments.RenderDRAMSweep(experiments.DRAMSweep(r)))
		fmt.Println()
		fmt.Print(experiments.RenderChannelScaling(experiments.DRAMChannelScaling(r)))
	case *mshrsweep:
		fmt.Print(experiments.RenderMSHRSweep(experiments.MSHRSweep(r)))
	case *pfsweep:
		fmt.Print(experiments.RenderPFSweep(experiments.PFSweep(r)))
	case *rpsweep:
		fmt.Print(experiments.RenderRPSweep(experiments.RPSweep(r)))
	case *ifsweep:
		fmt.Print(experiments.RenderIFSweep(experiments.IFSweep(r)))
	case *vasweep:
		fmt.Print(experiments.RenderVASweep(experiments.VASweep(r)))
	case *latdist:
		fmt.Print(experiments.RenderLatDist(experiments.LatDist(r)))
	case *cpisweep != "":
		// The attribution table wants the streaming kernel next to the
		// paper suite — its stack is the memory-dominated one — so the
		// sweep runs over the extended suite on its own runner.
		rx := experiments.NewRunnerWith(kernels.Extended())
		rx.Engine, rx.Workers, rx.Progress = r.Engine, r.Workers, r.Progress
		rep := experiments.CPISweep(rx, "extended")
		fh, err := os.Create(*cpisweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(fh); err == nil {
			err = fh.Close()
		} else {
			fh.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "momexp: writing %s: %v\n", *cpisweep, err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderCPISweep(rep))
		fmt.Printf("wrote %d CPI-stack rows to %s\n", len(rep.Rows), *cpisweep)
	case *fig != 0:
		printFigure(r, *fig)
	case *table != 0:
		printTable(r, *table)
	default:
		for _, t := range []int{1, 2, 3} {
			printTable(r, t)
			fmt.Println()
		}
		printFigure(r, 3)
		fmt.Println()
		printFigure(r, 6)
		fmt.Println()
		printFigure(r, 7)
		fmt.Println()
		printTable(r, 4)
		fmt.Println()
		printFigure(r, 9)
		fmt.Println()
		printFigure(r, 10)
		fmt.Println()
		printFigure(r, 11)
		fmt.Println()
		// The sweeps fix their own backend configurations; with explicit
		// dram flags they would silently disregard them, so skip them.
		if dramSet || dramKnobSet || mshrSet || pfSet {
			fmt.Fprintln(os.Stderr, "momexp: skipping the DRAM, MSHR, prefetch and row-policy sweeps (they compare their own backend configurations)")
		} else {
			fmt.Print(experiments.RenderDRAMSweep(experiments.DRAMSweep(r)))
			fmt.Println()
			fmt.Print(experiments.RenderChannelScaling(experiments.DRAMChannelScaling(r)))
			fmt.Println()
			fmt.Print(experiments.RenderMSHRSweep(experiments.MSHRSweep(r)))
			fmt.Println()
			fmt.Print(experiments.RenderPFSweep(experiments.PFSweep(r)))
			fmt.Println()
			fmt.Print(experiments.RenderRPSweep(experiments.RPSweep(r)))
			fmt.Println()
			fmt.Print(experiments.RenderLatDist(experiments.LatDist(r)))
			fmt.Println()
		}
		fmt.Print(experiments.ComputeHeadline(r).Render())
	}

	if simNs, simCycles := r.HostPerf(); !*quiet && simNs > 0 {
		streams, insts, bytes := r.TraceStats()
		fmt.Fprintf(os.Stderr, "host: %s engine, %d workers, %.3fs simulating, %.0f simulated cycles/s; %d traces generated once each, %d instructions, %.0f MB held\n",
			mode, workers, float64(simNs)/1e9, float64(simCycles)/(float64(simNs)/1e9), streams, insts, float64(bytes)/1e6)
	}
}

func printFigure(r *experiments.Runner, n int) {
	var f *experiments.Figure
	switch n {
	case 3:
		f = experiments.Figure3(r)
	case 6:
		f = experiments.Figure6(r)
	case 7:
		f = experiments.Figure7(r)
	case 9:
		f = experiments.Figure9(r)
	case 10:
		f = experiments.Figure10(r)
	case 11:
		f = experiments.Figure11(r)
	default:
		fmt.Fprintf(os.Stderr, "momexp: unknown figure %d\n", n)
		os.Exit(2)
	}
	fmt.Print(f.Render())
}

func printTable(r *experiments.Runner, n int) {
	switch n {
	case 1:
		fmt.Print(experiments.RenderTable1(experiments.Table1(r)))
	case 2:
		fmt.Print(experiments.Table2())
	case 3:
		fmt.Print(experiments.Table3())
	case 4:
		fmt.Print(experiments.RenderTable4(experiments.Table4(r)))
	default:
		fmt.Fprintf(os.Stderr, "momexp: unknown table %d\n", n)
		os.Exit(2)
	}
}
