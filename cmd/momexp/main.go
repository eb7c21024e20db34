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
//	momexp -dram sdram  rerun the evaluation over the banked SDRAM model
//	momexp -mshr 8      ... with an 8-entry MSHR file (non-blocking pipeline; 0 or 1 = the blocking model)
//	momexp -mshr 16 -pf 8  ... with a stream prefetcher riding the MSHR batch
//	momexp -dram sdram -rp history  ... under the live/dead row predictor
//	momexp -j 8         any of the above, cells across 8 workers
//	momexp -q           suppress per-simulation progress
//	momexp -cpuprofile cpu.pprof -memprofile mem.pprof  profile the simulator itself
//
// The selectors (-fig through -statsjson, one per run, in the order of
// the table in selectors.go) pick what to print; every sweep fixes its
// own backends and refuses explicit -dram/-mshr/... flags. The backend
// flags -dmap, -dsched, -dprof, -dchan, -rp, -mshr, -pf, -pfd and -va
// are the rows of dram.KnobTable that momexp exposes (momsim's package
// comment describes them). Every simulation runs on the
// event-wheel engine, which prints what the per-cycle driver would.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// momexp's own flags beside the selectors': the backend knobs come from
// the rows of dram.KnobTable that momexp exposes.
var (
	dramName   = flag.String("dram", "", "main-memory backend for all simulations: fixed, sdram (default: seed flat latency)")
	knobs      = dram.RegisterFlags(flag.CommandLine, true)
	jWorkers   = flag.Int("j", 0, "worker goroutines the sweeps shard cells across (0 = one per CPU, 1 = serial)")
	quiet      = flag.Bool("q", false, "suppress progress output")
	cpuprofile = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile = flag.String("memprofile", "", "write a host heap profile, taken at exit, to this file")
)

func init() {
	for i := range selectors {
		selectors[i].register()
	}
}

func main() {
	flag.Parse()

	// Note the selectors given, and whether any backend flag was.
	knobGiven := knobs.Given()
	opts := sweepOptions{J: *jWorkers, Backend: knobGiven}
	flag.Visit(func(f *flag.Flag) {
		opts.Backend = opts.Backend || f.Name == "dram"
		if s := selectorByName(f.Name); s != nil && f.Value.String() != f.DefValue {
			opts.Selectors = append(opts.Selectors, f.Name)
			if s.arg == fileArg {
				opts.Outputs = append(opts.Outputs, stats.Output{Flag: f.Name, Path: f.Value.String()})
			}
		}
	})
	reports := opts.Outputs
	opts.Outputs = append(reports,
		stats.Output{Flag: "cpuprofile", Path: *cpuprofile}, stats.Output{Flag: "memprofile", Path: *memprofile})
	plan, err := resolveSweep(opts)
	if err != nil {
		usage(err)
	}

	r := experiments.NewRunner()
	r.Engine, r.Workers = engine.Wheel, plan.Workers
	if !*quiet {
		r.Progress = func(k experiments.SimKey) {
			fmt.Fprintf(os.Stderr, "sim %-12s %-6s %-18s L2=%d %s\n", k.Bench, k.Variant, k.Mem, k.L2Lat, k.DRAM)
		}
	}
	// Explicitly-set knobs the chosen backend would silently ignore are
	// refused (shared policy with momsim); without -dram there is no
	// spec to carry any knob — "fixed" is the seed flat model's
	// bit-identical spec form.
	sel, err := knobs.Read(*dramName)
	if err == nil && *dramName == "" && knobGiven {
		err = fmt.Errorf("backend knobs configure the -dram backend; give -dram fixed or -dram sdram")
	}
	if err == nil && *dramName != "" {
		err = r.SetDRAM(sel.Spec(*dramName))
	}
	if err != nil {
		usage(err)
	}

	stop, err := stats.StartProfiles(*cpuprofile, *memprofile, reports...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(1)
	}

	x := &session{r: r, backend: opts.Backend}
	if sel := plan.Selector; sel != nil {
		err = sel.run(x, flag.Lookup(sel.name).Value.String())
	} else {
		err = runDefault(x)
	}
	if err == nil {
		err = stop()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
		os.Exit(1)
	}

	if simNs, simCycles := r.HostPerf(); !*quiet && simNs > 0 {
		streams, insts, static, bytes := r.TraceStats()
		fmt.Fprintf(os.Stderr, "host: %s engine, %d workers, %.3fs simulating, %.0f simulated cycles/s; %d traces generated once each, %d instructions over %d static, %.1f B/inst, %.0f MB held\n",
			r.Engine, plan.Workers, float64(simNs)/1e9, float64(simCycles)/(float64(simNs)/1e9),
			streams, insts, static, float64(bytes)/float64(insts), float64(bytes)/1e6)
	}
}

// usage reports a command line that cannot run and exits 2.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "momexp: %v\n", err)
	os.Exit(2)
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
