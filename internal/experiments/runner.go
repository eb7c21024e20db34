// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.1, §5.2, §6): it generates benchmark traces, drives the
// cycle simulator across the ISA and memory-system configurations, and
// renders the same rows and series the paper reports.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// SimKey identifies one cell: one simulation configuration. Bench is a
// benchmark, or a tenant mix — the tenants' benchmarks joined with "+",
// which cannot appear in a benchmark name. DRAM is the main-memory
// backend spec ("" for the seed's flat latency, "fixed", or
// "sdram/<mapping>/<scheduler>"; a mix's carries tn<tenants>).
type SimKey struct {
	Bench   string
	Variant kernels.Variant
	Mem     core.MemKind
	L2Lat   int64
	DRAM    string
}

// SimResult is the outcome of one cell, its counters copied out once:
// these copies are what the figures, the sweeps and LatDist read. Core,
// VM, ScalarL2, Activity and Trace are tenant 0's (a solo run's only
// tenant); the rest belong to the shared memory system.
type SimResult struct {
	Key      SimKey
	Core     *core.Stats
	Cycles   []int64 // tenant i's execution time
	VM       vmem.Stats
	ScalarL2 uint64
	Activity uint64 // total L2 accesses (Table 4)
	Trace    *trace.Stats
	DRAM     dram.Stats         // the backend's, dram.Fixed's for a "" or "fixed" cell
	Shards   []dram.TenantStats // tenant i's share of DRAM; nil for a solo run
	MSHR     vmem.MSHRStats     // zero-valued under the blocking model
	PF       vmem.PrefetchStats // zero-valued with the prefetcher off
	Walk     *stats.Histogram   // vm.walk.latency; nil without translation

	// HostNs is the wall-clock cost of the simulation loop alone (trace
	// generation and stat collection excluded).
	HostNs int64
}

// Runner generates traces and runs simulations, memoizing results so the
// figures can share configurations. Every (benchmark, variant) stream is
// generated once and held, read-only, for the life of the runner.
type Runner struct {
	benches map[string]kernels.Benchmark // immutable after construction
	order   []string

	results map[SimKey]*SimResult
	store   *traceStore // shared with the worker clones child() makes

	// Progress, if non-nil, is called before each new simulation.
	Progress func(key SimKey)

	// dramSpec is the backend Sim uses (SetDRAM); a cell's key names its own.
	dramSpec string

	// Engine selects the simulation engine for every run: the per-cycle
	// oracle (the zero value) or the event-wheel engine. Results are
	// bit-identical either way; only HostNs changes.
	Engine engine.Mode

	// Workers caps the goroutines the sweep prewarmers fan cells across;
	// 0 or 1 keeps every sweep serial.
	Workers int
}

// traceStore is the runner-lifetime trace cache. The paper kernels'
// 14 streams are 2.0 M instructions (0.79 M with an address) over 8,061
// static ones = 4.6 MB with their op words stored as distinct runs (all
// 18 extended streams: 3.25 M over 19,501 = 8.4 MB; 7.9 and 13.7 MB
// with a flat 2-byte op word per instruction), so nothing is ever
// evicted.
// One lock covers lookup and generation: generating is a small share of
// any sweep, and a worker that waits for another's stream would
// otherwise have generated a copy of it.
type traceStore struct {
	mu      sync.Mutex
	streams map[streamKey]*stream
	rec     trace.Recorder // staging, reused from one generation to the next
}

type streamKey struct {
	bench string
	v     kernels.Variant
}

// stream is one generated trace. Every cell, tenant mix and sweep that
// asks gets the same tr and st: both are read-only.
type stream struct {
	tr *trace.Stream
	st *trace.Stats
}

// SetDRAM sets the main-memory backend Sim runs every cell on: "" (the
// seed's flat latency) or a spec dram.ParseSpecFull accepts, such as
// "fixed" or "sdram/<mapping>/<scheduler>". A spec that does not parse,
// or that carries a tn token (a runner's cells are solo), is refused and
// leaves the runner as it was.
func (r *Runner) SetDRAM(spec string) error {
	if spec != "" {
		_, knobs, err := dram.ParseSpecFull(spec, flatMemLatency)
		if err != nil {
			return err
		}
		if knobs.Tenants != 0 {
			return fmt.Errorf("spec %q carries tn%d: a runner's cells are solo", spec, knobs.Tenants)
		}
	}
	r.dramSpec = spec
	return nil
}

// NewRunner builds a runner over the default benchmark suite.
func NewRunner() *Runner { return NewRunnerWith(kernels.All()) }

// NewRunnerWith builds a runner over a custom suite (tests use scaled-down
// benchmarks).
func NewRunnerWith(bms []kernels.Benchmark) *Runner {
	r := &Runner{
		benches: map[string]kernels.Benchmark{},
		results: map[SimKey]*SimResult{},
		store:   &traceStore{streams: map[streamKey]*stream{}},
	}
	for _, bm := range bms {
		r.benches[bm.Name] = bm
		r.order = append(r.order, bm.Name)
	}
	return r
}

// Benchmarks lists the suite in presentation order.
func (r *Runner) Benchmarks() []string { return r.order }

// TraceStats reports what the trace store holds: the streams generated
// (each exactly once), their dynamic and static instructions, and the
// bytes the three tables of every stream occupy.
func (r *Runner) TraceStats() (streams, insts, static int, bytes int64) {
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	for _, s := range r.store.streams {
		insts += s.tr.Len()
		static += len(s.tr.Static)
		bytes += s.tr.Bytes()
	}
	return len(r.store.streams), insts, static, bytes
}

// traceFor returns the stream of one benchmark variant, generating it
// on first use. A benchmark without 3D patterns has no MOM+3D build of
// its own (its kernel runs the MOM code for both), so its MOM stream
// answers for MOM+3D too.
func (r *Runner) traceFor(bench string, v kernels.Variant) *stream {
	ts, key := r.store, streamKey{bench, v}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if s := ts.streams[key]; s != nil {
		return s
	}
	bm, ok := r.benches[bench]
	if !ok {
		// Workloads outside the paper's five-benchmark presentation
		// order (the MSHR sweep's motionsearch stream) resolve from the
		// extended registry on demand without joining Benchmarks().
		if bm, ok = kernels.ByName(bench); !ok {
			panic(fmt.Sprintf("experiments: unknown benchmark %q", bench))
		}
	}
	if v == kernels.MOM3D && !bm.Has3D {
		key.v = kernels.MOM
		if s := ts.streams[key]; s != nil {
			return s
		}
	}
	s := &stream{}
	s.tr, s.st = ts.rec.Record(func(sink trace.Sink) { bm.Run(key.v, sink) })
	ts.streams[key] = s
	return s
}

// coreConfigFor maps an ISA variant to its processor configuration.
func coreConfigFor(v kernels.Variant) core.Config {
	if v == kernels.MMX {
		return core.MMXCore()
	}
	return core.MOMCore()
}

// Sim runs (or recalls) one benchmark over the runner's default DRAM
// backend: the figures' shorthand for cell.
func (r *Runner) Sim(bench string, v kernels.Variant, mem core.MemKind, l2lat int64) *SimResult {
	return r.cell(SimKey{Bench: bench, Variant: v, Mem: mem, L2Lat: l2lat, DRAM: r.dramSpec})
}

// flatMemLatency is the seed's main-memory latency beyond L2, the
// dram.Fixed latency of both a "fixed" cell and a "" cell (whose Timing
// names no backend, so core.NewMemSystem builds it from MemLatency).
const flatMemLatency = 100

// machine builds one cell as a tenant group: tenant i runs the i-th
// benchmark of key.Bench's mix (one name is a solo run, a group of one),
// every tenant on key's ISA variant and memory system, over a fresh
// backend — they are stateful — built from key.DRAM (left to
// core.NewMemSystem, the seed's flat latency, for ""). This is the only
// construction site. SetDRAM refuses a bad spec of the caller's, so a
// spec that does not parse, a placement policy the VM refuses, or a
// tn<n> token that disagrees with the mix panics here, with the cell's
// key, only from a spec a sweep composed itself.
func (r *Runner) machine(key SimKey) *tenant.Group {
	fail := func(err any) { panic(fmt.Sprintf("experiments: %+v: %v", key, err)) }
	mix := strings.Split(key.Bench, "+")
	var backend dram.Backend
	var knobs dram.Knobs
	var err error
	if key.DRAM != "" {
		if backend, knobs, err = dram.ParseSpecFull(key.DRAM, flatMemLatency); err != nil {
			fail(err)
		}
	}
	// A solo cell carries no tn token: under tn1 the same machine would
	// be simulated again as a second memo entry.
	n, want := len(mix), 0
	if n > 1 {
		want = n
	}
	if knobs.Tenants != want {
		fail(fmt.Sprintf("spec %q carries tn%d for a %d-tenant mix", key.DRAM, knobs.Tenants, n))
	}
	var vmsys *vm.VM
	if knobs.VA != "" {
		if vmsys, err = core.NewVM(knobs.VA, n, backend); err != nil {
			fail(err)
		}
	}
	// Every tenant of one benchmark reads the same stored stream in
	// place; the group gives each its own address window.
	streams := make([]*trace.Stream, n)
	for i, bench := range mix {
		streams[i] = r.traceFor(bench, key.Variant).tr
	}
	cfg := coreConfigFor(key.Variant)
	return tenant.New(tenant.Options{Core: cfg, Kind: key.Mem, Lanes: cfg.Lanes,
		Tim: vmem.Timing{L2Latency: key.L2Lat, MemLatency: flatMemLatency, Backend: backend,
			MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree},
		// In the MMX configuration the "multi-banked" realistic memory banks
		// the L1 data cache ports (there is no vector subsystem to bank).
		BankL1:  key.Variant == kernels.MMX && key.Mem != core.MemIdeal,
		Streams: streams, Engine: r.Engine, VM: vmsys})
}

// cell runs (or recalls) the simulation key names, solo run or mix.
func (r *Runner) cell(key SimKey) *SimResult { return recall(r, r.results, key, (*Runner).simulate) }

// simulate builds and runs the machine key names.
func (r *Runner) simulate(key SimKey) *SimResult { return r.result(key, r.machine(key)) }

// result runs g, the machine key names, copies out what the figures and
// sweeps read — copies and standalone histograms only, so a memoized
// result keeps nothing of the machine reachable — and releases g.
func (r *Runner) result(key SimKey, g *tenant.Group) *SimResult {
	start := time.Now()
	g.Run()
	res := &SimResult{Key: key, HostNs: time.Since(start).Nanoseconds(), Cycles: make([]int64, g.N())}
	for i := range res.Cycles {
		res.Cycles[i] = g.Stats(i).Cycles
		if ts := g.TenantStatsOf(i); ts != nil {
			res.Shards = append(res.Shards, *ts)
		}
	}
	ms := g.Mem(0)
	first, _, _ := strings.Cut(key.Bench, "+")
	res.Core, res.VM, res.Trace = g.Stats(0), *ms.VM.Stats(), r.traceFor(first, key.Variant).st
	res.ScalarL2, res.Activity = ms.ScalarL2Accesses, ms.L2Activity()
	res.DRAM = *ms.DRAM().Stats()
	if f := ms.MSHR(); f != nil {
		res.MSHR = *f.Stats()
		res.PF = f.PrefetchStats()
	}
	if sp := ms.Tim.VA; sp != nil {
		res.Walk = sp.VM().WalkStats().Latency
	}
	g.Release()
	return res
}

// HostPerf sums the simulation wall clock and simulated cycles across
// every memoized cell for the front end's host-performance summary
// line. A mix counts its slowest tenant's cycles: the tenants share one
// clock, so that is the simulated time the host paid for.
func (r *Runner) HostPerf() (ns, cycles int64) {
	for _, res := range r.results {
		ns += res.HostNs
		cycles += slices.Max(res.Cycles)
	}
	return ns, cycles
}

// Convenience configuration accessors used by the figures.

const baseLat = 20

// Shorthand aliases used by the figure builders.
var (
	momVariant   = kernels.MOM
	mom3DVariant = kernels.MOM3D
	momVCKind    = core.MemVectorCache
	mom3DVCKind  = core.MemVectorCache3D
)

// MOMIdeal is the normalization baseline of Figs 3 and 9.
func (r *Runner) MOMIdeal(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemIdeal, baseLat)
}

// MOMMultiBanked is the MOM processor over the 4-port, 8-bank cache.
func (r *Runner) MOMMultiBanked(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemMultiBanked, baseLat)
}

// MOMVectorCache is the MOM processor over the vector cache.
func (r *Runner) MOMVectorCache(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemVectorCache, baseLat)
}

// MOM3DVectorCache is the 3D-extended processor over the vector cache
// with the 3D register file datapath.
func (r *Runner) MOM3DVectorCache(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM3D, core.MemVectorCache3D, baseLat)
}

// MMXIdeal is the MMX-like processor with idealistic memory.
func (r *Runner) MMXIdeal(bench string) *SimResult {
	return r.Sim(bench, kernels.MMX, core.MemIdeal, baseLat)
}

// MMXMultiBanked is the MMX-like processor with banked L1 ports.
func (r *Runner) MMXMultiBanked(bench string) *SimResult {
	return r.Sim(bench, kernels.MMX, core.MemMultiBanked, baseLat)
}
