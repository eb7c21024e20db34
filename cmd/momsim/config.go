package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// options mirrors the command-line flags; parseArgs reads them and
// resolve validates them into a runnable configuration, so flag
// handling is testable without the process's own command line.
type options struct {
	Bench string
	ISA   string
	Mem   string
	DRAM  string // backend kind: fixed, sdram

	// The backend knobs, from the flags dram.KnobTable declares. Tenants
	// runs that many instances of the kernel trace through one shared
	// L2/MSHR/DRAM (1 = the classic single-requestor simulator).
	dram.Selection
	// BackendGiven: -dram, -mlat or a knob flag was set explicitly —
	// refused with -mem ideal, which would ignore it.
	BackendGiven bool

	L2Lat  int64
	MemLat int64
	Gshare bool
	Verify bool // check the kernel output against the scalar reference

	// Observability outputs: Trace writes a Chrome trace-event JSON
	// file (TraceBuf sizes the event ring; 0 = default), StatsJSON
	// writes the registry snapshot, CPIStack prints the cycle
	// attribution report, Sample/SampleJSON record a per-interval
	// time series of every registered counter, and CPUProfile/MemProfile
	// write host profiles of the simulator itself.
	Trace      string
	StatsJSON  string
	TraceBuf   int
	CPIStack   bool
	Sample     int64
	SampleJSON string
	CPUProfile string
	MemProfile string
}

// parseArgs declares momsim's flags on fs — the backend knobs by
// ranging over dram.KnobTable, the single-spelling flags by hand — and
// reads args into options. Explicitly-set knobs the chosen backend
// would silently ignore are refused here (shared policy with momexp).
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.Bench, "bench", "mpeg2encode", "benchmark: mpeg2encode, mpeg2decode, jpegencode, jpegdecode, gsmencode, motionsearch")
	fs.StringVar(&o.ISA, "isa", "mom3d", "ISA variant: mmx, mom, mom3d")
	fs.StringVar(&o.Mem, "mem", "vcache3d", "memory system: ideal, multibanked, vcache, vcache3d")
	fs.StringVar(&o.DRAM, "dram", "fixed", "main-memory backend: fixed, sdram")
	knobs := dram.RegisterFlags(fs, false)
	fs.Int64Var(&o.L2Lat, "l2", 20, "L2 cache latency in cycles")
	fs.Int64Var(&o.MemLat, "mlat", 100, "fixed backend: main memory latency beyond L2 in cycles")
	fs.BoolVar(&o.Gshare, "gshare", false, "use a gshare branch predictor instead of perfect prediction")
	fs.BoolVar(&o.Verify, "verify", true, "check the kernel output against the scalar reference")
	fs.StringVar(&o.Trace, "trace", "", "write a cycle-stamped Chrome trace-event JSON to this file")
	fs.StringVar(&o.StatsJSON, "statsjson", "", "write the stats-registry snapshot as JSON to this file")
	fs.IntVar(&o.TraceBuf, "tracebuf", 0, "trace event-ring capacity; oldest events drop first (0 = default)")
	fs.BoolVar(&o.CPIStack, "cpistack", false, "print the CPI stack: every core cycle attributed to one stall reason")
	fs.Int64Var(&o.Sample, "sample", 0, "interval time-series sampling period in cycles (0 = off; needs -samplejson)")
	fs.StringVar(&o.SampleJSON, "samplejson", "", "write the interval time series as JSON to this file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a host heap profile, taken at exit, to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	mlat := false
	o.BackendGiven = knobs.Given()
	fs.Visit(func(f *flag.Flag) {
		mlat = mlat || f.Name == "mlat"
		o.BackendGiven = o.BackendGiven || f.Name == "mlat" || f.Name == "dram"
	})
	if mlat && strings.ToLower(o.DRAM) == "sdram" {
		return o, fmt.Errorf("-mlat applies to the fixed backend only; drop it with -dram sdram")
	}
	var err error
	o.Selection, err = knobs.Read(o.DRAM)
	return o, err
}

// runConfig is everything one simulation needs: the options as given
// (Tenants, QoS and the observability outputs are read from them
// directly) and what resolve built from them.
type runConfig struct {
	options
	Bench   kernels.Benchmark
	Variant kernels.Variant
	Core    core.Config
	MemKind core.MemKind
	Timing  vmem.Timing
	VM      *vm.VM // address-translation layer (nil = translation off); the group wires Space(i) into tenant i
}

// resolve validates the options, building the benchmark, processor,
// memory-system and DRAM-backend configuration or reporting which flag
// value is unknown.
func resolve(o options) (runConfig, error) {
	rc := runConfig{options: o}
	bm, ok := kernels.ByName(o.Bench)
	if !ok {
		return rc, fmt.Errorf("unknown benchmark %q (mpeg2encode, mpeg2decode, jpegencode, jpegdecode, gsmencode, motionsearch)", o.Bench)
	}
	variant, err := kernels.ParseVariant(o.ISA)
	if err != nil {
		return rc, err
	}
	cfg := core.MOMCore()
	if variant == kernels.MMX {
		cfg = core.MMXCore()
	}
	memKind, err := parseMem(o.Mem)
	if err != nil {
		return rc, err
	}
	if o.L2Lat < 0 {
		return rc, fmt.Errorf("-l2 is a latency in cycles and must not be negative (got %d)", o.L2Lat)
	}
	if o.MemLat < 0 {
		return rc, fmt.Errorf("-mlat is a latency in cycles and must not be negative (got %d)", o.MemLat)
	}
	if o.Tenants < 1 {
		return rc, fmt.Errorf("-tenants must be 1..%d (got %d)", dram.MaxTenants, o.Tenants)
	}
	if o.Tenants > 1 && memKind == core.MemIdeal {
		return rc, fmt.Errorf("-tenants needs a shared cache hierarchy to contend for; it has no effect with -mem ideal")
	}
	// The backend only learns the tenant count when it matters to it:
	// a multi-tenant run (stat shards and, with QoS, credit scheduling).
	sel := o.Selection
	if o.Tenants == 1 {
		sel.Tenants = 0
	}
	backend, err := sel.Build(o.DRAM, o.MemLat)
	if err != nil {
		return rc, err
	}
	if o.VA != "" {
		if memKind == core.MemIdeal {
			return rc, fmt.Errorf("-va translates the cache-hierarchy access path; it has no effect with -mem ideal")
		}
		if rc.VM, err = core.NewVM(o.VA, o.Tenants, backend); err != nil {
			return rc, err
		}
	}
	if memKind == core.MemIdeal && o.MSHRs != 0 {
		return rc, fmt.Errorf("-mshr needs a cache hierarchy; it has no effect with -mem ideal")
	}
	if memKind == core.MemIdeal && o.PFStreams != 0 {
		return rc, fmt.Errorf("-pf needs a cache hierarchy; it has no effect with -mem ideal")
	}
	// Ideal memory has no cache hierarchy, so neither a DRAM backend
	// nor a memory latency ever applies; reject explicit flags rather
	// than ignore them.
	if memKind == core.MemIdeal && o.BackendGiven {
		return rc, fmt.Errorf("-dram, -mlat and the backend knobs have no effect with -mem ideal")
	}
	if o.TraceBuf < 0 {
		return rc, fmt.Errorf("-tracebuf must not be negative (got %d)", o.TraceBuf)
	}
	if o.TraceBuf > 0 && o.Trace == "" {
		return rc, fmt.Errorf("-tracebuf sizes the -trace event ring; it has no effect without -trace")
	}
	if o.Sample < 0 {
		return rc, fmt.Errorf("-sample must not be negative (got %d)", o.Sample)
	}
	if o.Sample > 0 && o.SampleJSON == "" {
		return rc, fmt.Errorf("-sample records an interval time series; name its output with -samplejson <file>")
	}
	if o.SampleJSON != "" && o.Sample == 0 {
		return rc, fmt.Errorf("-samplejson has no effect without -sample <cycles>")
	}
	if err := stats.DistinctOutputs(append(o.reports(),
		stats.Output{Flag: "cpuprofile", Path: o.CPUProfile},
		stats.Output{Flag: "memprofile", Path: o.MemProfile},
	)...); err != nil {
		return rc, err
	}
	cfg.UseGshare = o.Gshare
	rc.Bench = bm
	rc.Variant = variant
	rc.Core = cfg
	rc.MemKind = memKind
	rc.Timing = vmem.Timing{L2Latency: o.L2Lat, MemLatency: o.MemLat, Backend: backend,
		MSHRs: o.MSHRs, PFStreams: o.PFStreams, PFDegree: o.PFDegree}
	return rc, nil
}

// reports are the files a run writes besides the two profiles.
func (o options) reports() []stats.Output {
	return []stats.Output{{Flag: "trace", Path: o.Trace}, {Flag: "statsjson", Path: o.StatsJSON},
		{Flag: "samplejson", Path: o.SampleJSON}}
}

func parseMem(s string) (core.MemKind, error) {
	switch strings.ToLower(s) {
	case "ideal":
		return core.MemIdeal, nil
	case "multibanked", "mb":
		return core.MemMultiBanked, nil
	case "vcache", "vectorcache":
		return core.MemVectorCache, nil
	case "vcache3d", "vcache+3d":
		return core.MemVectorCache3D, nil
	}
	return 0, fmt.Errorf("unknown memory system %q (ideal, multibanked, vcache, vcache3d)", s)
}
