package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// probeReps is how often one configuration of a probe cell is run; the
// fastest run is reported. A configuration that has already cost
// probeRepBudget is not repeated (the four-tenant cells under the
// per-cycle engine take seconds each).
const (
	probeReps      = 3
	probeRepBudget = time.Second
)

// cellOpts selects what one run of a probe cell carries.
type cellOpts struct {
	wrapped bool // the benchmark's vmem and dram timing wrappers
	tracer  bool // a 65 536-event stats.Tracer attached
	sampler bool // a stats.Sampler every 1 000 cycles
}

func (o cellOpts) String() string {
	switch {
	case o.wrapped:
		return "wrapped"
	case o.tracer:
		return "tracer"
	case o.sampler:
		return "sampler"
	}
	return "plain"
}

// cellRun is one simulation of a probe cell.
type cellRun struct {
	setupStart, setupEnd, simStart, simEnd time.Time

	setupAllocBytes uint64
	steps           int64 // engine loop iterations; 0 for tenant groups, whose loop is tenant.Group.Run
	cycles          int64 // summed over tenants
	unconserved     int   // simulators whose CPI buckets do not sum to their cycles
	reg             *stats.Registry
	snap            stats.Snapshot
	snapJSON        []byte
	mt              *memTimers
	tracer          *stats.Tracer
}

func (c cellRun) simNs() int64 { return c.simEnd.Sub(c.simStart).Nanoseconds() }

// runCell builds the cell from the public constructors, the way
// experiments.Runner.SimDRAM and SimTenants do, and runs it to
// completion under mode.
func runCell(p probe, insts []isa.Inst, mode engine.Mode, o cellOpts) (cellRun, error) {
	var c cellRun
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.setupStart = time.Now()

	if o.wrapped {
		c.mt = &memTimers{}
	}
	tim := vmem.DefaultTiming() // the paper's base system: L2 20, memory 100
	var sd *dram.SDRAM
	var knobs dram.Knobs
	if p.spec != "" {
		backend, k, err := dram.ParseSpecFull(p.spec, tim.MemLatency)
		if err != nil {
			return c, err
		}
		var ok bool
		if sd, ok = backend.(*dram.SDRAM); !ok {
			return c, fmt.Errorf("probe spec %q does not build the sdram backend", p.spec)
		}
		knobs = k
		tim.Backend, tim.MSHRs, tim.PFStreams, tim.PFDegree = sd, k.MSHRs, k.PFStreams, k.PFDegree
		if o.wrapped {
			tim.Backend = &timedBackend{sd, c.mt}
		}
	}
	n := max(p.tenants, 1)
	var vmsys *vm.VM
	if knobs.VA != "" {
		var err error
		if vmsys, err = core.NewVM(knobs.VA, n, tim.Backend); err != nil {
			return c, err
		}
	}
	cfg := core.MOMCore()
	if p.variant == kernels.MMX {
		cfg = core.MMXCore()
	}
	c.reg = stats.NewRegistry()
	if o.tracer {
		c.tracer = stats.NewTracer(65536)
	}
	var sampler *stats.Sampler
	if o.sampler {
		sampler = stats.NewSampler(c.reg, 1000)
	}

	var sims []*core.Stats
	if p.tenants > 1 {
		traces := make([][]isa.Inst, n)
		for i := range traces {
			traces[i] = insts
		}
		g := tenant.New(tenant.Options{Core: cfg, Kind: p.mem, Tim: tim, Lanes: cfg.Lanes,
			Traces: traces, Engine: mode, VM: vmsys})
		if o.wrapped {
			for i := 0; i < g.N(); i++ {
				g.Mem(i).VM = &timedSystem{g.Mem(i).VM, c.mt}
			}
		}
		g.Register(c.reg)
		if c.tracer != nil {
			g.AttachTracer(c.tracer)
		}
		c.setupEnd = time.Now()
		runtime.ReadMemStats(&m1)
		c.simStart = time.Now()
		g.RunSampled(sampler) // a nil sampler is plain Run
		c.simEnd = time.Now()
		for i := 0; i < g.N(); i++ {
			sims = append(sims, g.Stats(i))
		}
	} else {
		if vmsys != nil {
			tim.VA = vmsys.Space(0)
		}
		ms := core.NewMemSystem(p.mem, tim, cfg.Lanes, p.variant == kernels.MMX && p.mem != core.MemIdeal)
		if o.wrapped {
			ms.VM = &timedSystem{ms.VM, c.mt}
		}
		sim := core.NewSim(cfg, ms, insts)
		sim.SetEngine(mode)
		sim.StatsRef().Register(c.reg)
		ms.Register(c.reg)
		if c.tracer != nil {
			ms.AttachTracer(c.tracer)
			sim.SetTracer(c.tracer, 0)
		}
		c.setupEnd = time.Now()
		runtime.ReadMemStats(&m1)
		c.simStart = time.Now()
		var next int64
		if sampler != nil {
			next = sampler.Interval()
		}
		for sim.Running() {
			if mode == engine.Wheel {
				sim.Advance()
			} else {
				sim.Step()
			}
			c.steps++
			if sampler != nil && sim.Now() >= next {
				sampler.Sample(sim.Now())
				for next <= sim.Now() {
					next += sampler.Interval()
				}
			}
		}
		st := sim.Finish()
		ms.Drain()
		c.simEnd = time.Now()
		sims = append(sims, st)
	}
	c.setupAllocBytes = m1.TotalAlloc - m0.TotalAlloc

	if sd != nil {
		sd.Flush() // posted writes, so the counters cover all traffic
	}
	for _, st := range sims {
		c.cycles += st.Cycles
		if st.CPI.Sum() != uint64(st.Cycles) {
			c.unconserved++
		}
	}
	c.snap = c.reg.Snapshot()
	var buf bytes.Buffer
	if err := c.snap.WriteJSON(&buf); err != nil {
		return c, err
	}
	c.snapJSON = buf.Bytes()
	return c, nil
}

// flatten reads a snapshot as name → number, folding each tenant's
// private shard (tenant.<i>.core.cycles) into the classic name
// (core.cycles) so that single-requestor and multi-tenant probes add
// up under the same names. The backend's per-tenant shards are left
// out: they split totals the shared dram.* names already hold.
// Histograms contribute <name>.sum and <name>.count.
func flatten(s stats.Snapshot, into map[string]float64) {
	add := func(name string, v float64) {
		if rest, ok := strings.CutPrefix(name, "tenant."); ok {
			_, name, _ = strings.Cut(rest, ".")
			if strings.HasPrefix(name, "dram.") {
				return
			}
		}
		into[name] += v
	}
	for name, v := range s.Counters {
		add(name, float64(v))
	}
	for name, v := range s.Gauges {
		add(name, float64(v))
	}
	for name, h := range s.Hists {
		add(name+".sum", float64(h.Sum))
		add(name+".count", float64(h.Count))
	}
}

// tracedPass is the per-layer pass over one workload.
type tracedPass struct {
	rec       recorder
	timerNs   float64
	acc       map[string]float64 // sums over the workload's probes
	attempted int
	failures  []string
}

func (tp *tracedPass) check(ok bool, format string, args ...any) {
	tp.attempted++
	if !ok {
		tp.failures = append(tp.failures, fmt.Sprintf(format, args...))
	}
}

// calibrateTimer measures the cost of one clock read.
func calibrateTimer() float64 {
	const pairs = 200000
	var sink int64
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t := time.Now()
		sink += time.Since(t).Nanoseconds()
	}
	total := time.Since(start).Nanoseconds()
	if sink < 0 {
		return 0
	}
	return float64(total) / (2 * pairs)
}

// traced is the traced child: one iteration with a span per stage,
// then the workload's probe cells.
func traced(w workload, suite []kernels.Benchmark) childReport {
	tp := &tracedPass{timerNs: calibrateTimer(), acc: map[string]float64{}}
	tp.rec.epoch = time.Now()

	it := runIteration(w, suite)
	tp.attempted += it.Cells
	tp.failures = append(tp.failures, it.Failures...)
	probesStart := time.Now()
	root := tp.rec.single(0, "", "pass", tp.rec.epoch, probesStart)
	iter := tp.rec.single(root, "", "iteration", tp.rec.epoch, probesStart)
	for _, st := range it.stages {
		id := tp.rec.single(iter, "", "experiments."+st.name, st.start, st.end)
		tp.rec.single(id, "", "experiments.render", st.rendered, st.end)
	}

	for _, p := range w.probes {
		tp.runProbe(w, p, suite, root)
	}
	tp.rec.extend(root, time.Now())

	return childReport{
		Attempted:   tp.attempted,
		Failures:    tp.failures,
		Digest:      it.Digest,
		CheckDigest: it.CheckDigest,
		PaperGapPts: it.PaperGapPts,
		PeakRSSMB:   peakRSSMB(),
		PerLayer:    tp.metrics(w, it),
		Spans:       tp.rec.spans,
	}
}

// bestOf runs one configuration of a probe cell up to probeReps times
// and keeps the run with the shortest simulation loop.
func bestOf(p probe, insts []isa.Inst, mode engine.Mode, o cellOpts) (cellRun, error) {
	var best cellRun
	start := time.Now()
	for rep := 0; rep < probeReps && (rep == 0 || time.Since(start) < probeRepBudget); rep++ {
		c, err := runCell(p, insts, mode, o)
		if err != nil {
			return c, err
		}
		if rep == 0 || c.simNs() < best.simNs() {
			best = c
		}
	}
	return best, nil
}

// runProbe generates the probe's trace through the timing sink, runs
// the cell under both engines with and without the wrappers (and, on
// the workload's own engine, with a tracer and with a sampler), checks
// that all of them agree, and adds the cell to the pass's sums.
func (tp *tracedPass) runProbe(w workload, p probe, suite []kernels.Benchmark, parent int) {
	id := p.id()
	defer func() {
		if r := recover(); r != nil {
			tp.check(false, "%s: probe %s: panic: %v", w.name, id, r)
		}
	}()
	var bm kernels.Benchmark
	for _, b := range suite {
		if b.Name == p.bench {
			bm = b
		}
	}
	if bm.Name == "" {
		tp.check(false, "%s: probe %s: no such kernel in the suite", w.name, id)
		return
	}

	probeStart := time.Now()
	sink := &timedSink{tr: &trace.Trace{}}
	digest := bm.Run(p.variant, sink)
	runEnd := time.Now()
	insts := sink.tr.Insts
	verified := bytes.Equal(digest, bm.Reference())
	tp.check(verified, "%s: probe %s: kernel output differs from the scalar reference", w.name, id)
	if !verified {
		tp.acc["kernels.verify_failed"]++
	}

	// Every configuration of the cell; the first error stops the rest.
	type namedRun struct {
		name string
		cellRun
	}
	var runs []namedRun
	var runErr error
	run := func(mode engine.Mode, o cellOpts) cellRun {
		if runErr != nil {
			return cellRun{}
		}
		c, err := bestOf(p, insts, mode, o)
		runErr = err
		runs = append(runs, namedRun{fmt.Sprintf("%s/%s", mode, o), c})
		return c
	}
	stepPlain, stepWrapped := run(engine.Step, cellOpts{}), run(engine.Step, cellOpts{wrapped: true})
	wheelPlain, wheelWrapped := run(engine.Wheel, cellOpts{}), run(engine.Wheel, cellOpts{wrapped: true})
	withTracer, withSampler := run(w.engine, cellOpts{tracer: true}), run(w.engine, cellOpts{sampler: true})
	if runErr != nil {
		tp.check(false, "%s: probe %s: %v", w.name, id, runErr)
		return
	}
	plain, wrapped := stepPlain, stepWrapped
	if w.engine == engine.Wheel {
		plain, wrapped = wheelPlain, wheelWrapped
	}

	var differ []string
	unconserved := 0
	for _, r := range runs {
		if r.cycles != stepPlain.cycles || !bytes.Equal(r.snapJSON, stepPlain.snapJSON) {
			differ = append(differ, r.name)
		}
		unconserved += r.unconserved
	}
	tp.check(len(differ) == 0, "%s: probe %s: cycles or registry snapshot differ from step/plain under %s",
		w.name, id, strings.Join(differ, ", "))
	tp.check(unconserved == 0, "%s: probe %s: CPI buckets do not sum to cycles in %d runs", w.name, id, unconserved)
	if p.spec != "" {
		v := stepWrapped.mt.violations + wheelWrapped.mt.violations
		tp.check(v == 0, "%s: probe %s: %d breaches of the Submit contract", w.name, id, v)
		tp.acc["dram.contract_violations"] += float64(v)
	}

	// Spans of the wrapped run on the workload's engine.
	ps := tp.rec.single(parent, id, "probe", probeStart, time.Now())
	kr := tp.rec.single(ps, id, "kernels.run", probeStart, runEnd)
	tp.rec.fold(kr, id, "trace.emit", sink.emit)
	tp.rec.single(ps, id, "core.setup", wrapped.setupStart, wrapped.setupEnd)
	sim := tp.rec.single(ps, id, "core.simulate", wrapped.simStart, wrapped.simEnd)
	iss := tp.rec.fold(sim, id, "vmem.issue", wrapped.mt.issue)
	tp.rec.fold(iss, id, "dram.submit", wrapped.mt.submitInIssue)
	tp.rec.fold(sim, id, "dram.submit", wrapped.mt.submitFromCore)

	a := tp.acc
	a["probes"]++
	a["kernels.insts"] += float64(len(insts))
	a["trace.alloc_bytes"] += float64(sink.allocBytes)
	a["core.setup_alloc_bytes"] += float64(wrapped.setupAllocBytes)
	a["sim.plain_ns"] += float64(plain.simNs())
	a["sim.wrapped_ns"] += float64(wrapped.simNs())
	a["sim.step_ns"] += float64(stepPlain.simNs())
	a["sim.wheel_ns"] += float64(wheelPlain.simNs())
	a["sim.tracer_ns"] += float64(withTracer.simNs())
	a["sim.sampler_ns"] += float64(withSampler.simNs())
	if p.tenants > 1 {
		a["tenant.run_ns"] += float64(plain.simNs())
		a["tenant.cycles"] += float64(plain.cycles)
	} else {
		a["engine.steps"] += float64(plain.steps)
		a["engine.cycles"] += float64(plain.cycles)
	}
	a["vmem.issue_calls"] += float64(wrapped.mt.issue.calls)
	a["dram.submit_calls"] += float64(wrapped.mt.submitInIssue.calls + wrapped.mt.submitFromCore.calls)
	a["dram.submit_reqs"] += float64(wrapped.mt.reqs)
	flatten(plain.snap, a)

	// What the stats layer costs on this cell: reading the registry,
	// exporting it, exporting the tracer's ring.
	const snaps, exports = 32, 8
	start := time.Now()
	for i := 0; i < snaps; i++ {
		plain.reg.Snapshot()
	}
	a["stats.snapshot_ns"] += float64(time.Since(start).Nanoseconds()) / snaps
	start = time.Now()
	for i := 0; i < exports; i++ {
		if err := plain.snap.WriteJSON(io.Discard); err != nil {
			tp.check(false, "%s: probe %s: exporting the snapshot: %v", w.name, id, err)
		}
	}
	a["stats.export_ns"] += float64(time.Since(start).Nanoseconds()) / exports
	a["stats.export_bytes"] += float64(len(plain.snapJSON))
	a["stats.names"] += float64(len(plain.reg.Names()))
	if tr := withTracer.tracer; tr.Len() > 0 {
		start = time.Now()
		if err := tr.WriteChromeJSON(io.Discard); err != nil {
			tp.check(false, "%s: probe %s: exporting the event trace: %v", w.name, id, err)
		}
		a["stats.chrome_ns"] += float64(time.Since(start).Nanoseconds())
		a["stats.chrome_events"] += float64(tr.Len())
	}
}

// metrics turns the pass's sums and spans into the per-layer metrics,
// by the names BENCHMARK.json declares.
func (tp *tracedPass) metrics(w workload, it iteration) map[string]float64 {
	a := tp.acc
	busy, self := map[string]float64{}, map[string]float64{}
	selfByID := selfNs(tp.rec.spans, tp.timerNs)
	for _, s := range tp.rec.spans {
		busy[s.Name] += float64(s.BusyNs) - float64(s.Calls)*tp.timerNs
		self[s.Name] += selfByID[s.ID]
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m := map[string]float64{
		"experiments.cells":             float64(it.Cells),
		"experiments.sim_loop_s":        it.SimS,
		"experiments.overhead_s":        it.WallS - it.SimS,
		"experiments.render_s":          busy["experiments.render"] / 1e9,
		"experiments.sim_mcycles":       it.MCycles,
		"experiments.sim_mcycles_per_s": div(it.MCycles, it.SimS),
		"experiments.paper_gap_pts":     it.PaperGapPts,

		"kernels.insts":            a["kernels.insts"],
		"kernels.self_s":           self["kernels.run"] / 1e9,
		"kernels.self_ns_per_inst": div(self["kernels.run"], a["kernels.insts"]),
		"kernels.verify_failed":    a["kernels.verify_failed"],

		"trace.emit_s":           busy["trace.emit"] / 1e9,
		"trace.emit_ns_per_inst": div(busy["trace.emit"], a["kernels.insts"]),
		"trace.alloc_mb":         a["trace.alloc_bytes"] / 1e6,
		"trace.bytes_per_inst":   div(a["trace.alloc_bytes"], a["kernels.insts"]),

		"core.setup_s":          busy["core.setup"] / 1e9,
		"core.setup_alloc_mb":   a["core.setup_alloc_bytes"] / 1e6,
		"core.simulate_s":       a["sim.plain_ns"] / 1e9,
		"core.self_s":           self["core.simulate"] / 1e9,
		"core.self_ns_per_step": div(self["core.simulate"], a["engine.steps"]),
		"core.cycles":           a["core.cycles"],
		"core.committed":        a["core.committed"],
		"core.ipc":              div(a["core.committed"], a["core.cycles"]),
		"core.cpi_unconserved":  a["core.cycles"] - cpiSum(a),

		"engine.steps":            a["engine.steps"],
		"engine.steps_per_kcycle": div(1000*a["engine.steps"], a["engine.cycles"]),
		"engine.wheel_speedup":    div(a["sim.step_ns"], a["sim.wheel_ns"]),

		"vmem.issue_calls":         a["vmem.issue_calls"],
		"vmem.self_s":              self["vmem.issue"] / 1e9,
		"vmem.self_ns_per_call":    div(self["vmem.issue"], a["vmem.issue_calls"]),
		"vmem.words_per_access":    div(a["vmem.words"], a["vmem.accesses"]),
		"vmem.mshr.fill_mean":      div(a["vmem.mshr.fill.sum"], a["vmem.mshr.fill.count"]),
		"cache.l1.hit_rate":        div(a["cache.l1.hits"], a["cache.l1.accesses"]),
		"cache.l2.hit_rate":        div(a["cache.l2.hits"], a["cache.l2.accesses"]),
		"dram.submit_calls":        a["dram.submit_calls"],
		"dram.submit_reqs":         a["dram.submit_reqs"],
		"dram.submit_s":            busy["dram.submit"] / 1e9,
		"dram.ns_per_req":          div(busy["dram.submit"], a["dram.submit_reqs"]),
		"dram.contract_violations": a["dram.contract_violations"],
		"dram.row_hit_rate":        div(a["dram.row_hits"], a["dram.accesses"]),
		"dram.bytes_per_cycle":     div(a["dram.bytes"], a["dram.last_done"]-a["dram.first_arrival"]),
		"dram.read_wait_mean":      div(a["dram.read_wait.sum"], a["dram.read_wait.count"]),
		"dram.read_service_mean":   div(a["dram.read_service.sum"], a["dram.read_service.count"]),
		"dram.qos_deferred":        a["dram.qo_s_deferred"],
		"vm.tlb.l1_hit_rate":       div(a["vm.tlb.l1_hits"], a["vm.tlb.l1_hits"]+a["vm.tlb.l1_misses"]),
		"vm.walk.latency_mean":     div(a["vm.walk.latency.sum"], a["vm.walk.latency.count"]),
		"vm.faults":                a["vm.tlb.faults"],

		"tenant.run_s":               a["tenant.run_ns"] / 1e9,
		"tenant.ns_per_tenant_cycle": div(a["tenant.run_ns"], a["tenant.cycles"]),
		"tenant.max_slowdown":        it.TenantMaxSlowdown,
		"tenant.jain":                it.TenantJain,
		"tenant.bytes_per_cycle":     it.TenantBytesPerCycle,

		"stats.names":                      div(a["stats.names"], a["probes"]),
		"stats.snapshot_ns":                div(a["stats.snapshot_ns"], a["probes"]),
		"stats.export_ns":                  div(a["stats.export_ns"], a["probes"]),
		"stats.export_bytes":               div(a["stats.export_bytes"], a["probes"]),
		"stats.tracer_overhead_frac":       div(a["sim.tracer_ns"], a["sim.plain_ns"]) - 1,
		"stats.sampler_overhead_frac":      div(a["sim.sampler_ns"], a["sim.plain_ns"]) - 1,
		"stats.chrome_export_ns_per_event": div(a["stats.chrome_ns"], a["stats.chrome_events"]),

		"bench.timer_ns":            tp.timerNs,
		"bench.trace_overhead_frac": div(a["sim.wrapped_ns"], a["sim.plain_ns"]) - 1,
		"bench.gomaxprocs":          float64(runtime.GOMAXPROCS(0)),
		"bench.iterations":          1,
	}
	// Counts reported under the name the registry gives them.
	for _, name := range registryCounts {
		m[name] = a[name]
	}
	return m
}

// registryCounts are the per-layer metrics read straight from the
// stats registry, summed over the workload's probes.
var registryCounts = []string{
	"core.cpi.busy", "core.cpi.issue", "core.cpi.exec", "core.cpi.dep", "core.cpi.mshr_full",
	"core.cpi.store_buf", "core.cpi.tlb_walk", "core.cpi.dram_wait", "core.cpi.qos_yield",
	"core.cpi.frontend", "core.cpi.drain",
	"vmem.accesses", "vmem.misses",
	"vmem.mshr.allocs", "vmem.mshr.merges", "vmem.mshr.flushes", "vmem.mshr.flushed_reqs",
	"vmem.mshr.full_stalls", "vmem.mshr.stall_cycles",
	"vmem.prefetch.issued", "vmem.prefetch.hits", "vmem.prefetch.late", "vmem.prefetch.useless",
	"vmem.prefetch.dropped_mshr",
	"cache.l2.accesses", "cache.l2.writebacks", "cache.l2.prefetch_fills",
	"dram.accesses", "dram.stall_cycles", "dram.refreshes", "dram.write_drains", "dram.reordered",
	"dram.prefetch_deferred", "dram.predictor_flips",
	"vm.tlb.l2_hits", "vm.tlb.l2_misses", "vm.walk.walks", "vm.walk.coalesced",
}

func cpiSum(a map[string]float64) float64 {
	var sum float64
	for _, name := range registryCounts {
		if strings.HasPrefix(name, "core.cpi.") {
			sum += a[name]
		}
	}
	return sum
}
