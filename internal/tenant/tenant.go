// Package tenant is the multi-requestor front end: it runs M
// independent kernel traces (or M instances of one kernel) through a
// SHARED memory system — one L2, one MSHR file, one prefetcher, one
// DRAM backend — by stepping M core simulators in per-cycle lockstep.
// Each tenant keeps its own L1 and vector subsystem (one core per
// requestor), and every request a tenant creates names it
// (dram.Request.Tenant), so the backend can shard statistics and apply
// per-tenant QoS scheduling.
//
// The group is the one way a machine is run: momsim and the experiment
// runner build one for every run, and a solo run is a group of one. A
// 1-tenant group is the single-requestor simulator exactly: tenant 0 is
// built by core.NewMemSystem, its address window starts at 0, its
// requests are tenant 0's, Run performs the step/finish/drain sequence
// of the reference loop core.SimulateStream, and Register gives it the
// classic unprefixed names — the equivalence, down to the whole registry
// snapshot, asserted in this package's tests.
package tenant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// RebaseShift positions each tenant's address space: tenant i's
// simulator adds i << RebaseShift to every memory address it
// dispatches, far above any kernel footprint (~6 MB max), so
// independent traces — which all allocate from the same base address —
// never alias in the shared L2 while still contending for the same
// channels, banks and rows.
const RebaseShift = 32

// Options configures a multi-requestor run. One stream per tenant;
// running M instances of one kernel means passing the same stream M
// times (tenants only read it, so all M share the one copy).
type Options struct {
	Core    core.Config
	Kind    core.MemKind
	Tim     vmem.Timing // shared backend/MSHR sizing; Tenant is overwritten per tenant
	Lanes   int
	BankL1  bool
	Streams []*trace.Stream
	Engine  engine.Mode // simulation engine; Wheel skips rounds no tenant can act in

	// Traces is the tenants as materialised traces, for callers that
	// hold no stream: New compacts each (trace.Compact) when Streams is
	// empty.
	Traces [][]isa.Inst

	// VM, when non-nil, gives tenant i the real virtual address space
	// VM.Space(i) over one shared physical pool instead of the
	// tenant<<32 address window: traces run at their native virtual
	// addresses, isolation comes from per-tenant page tables, and the
	// buddy allocator's placement policy decides how the tenants'
	// pages interleave across DRAM channels and rows.
	VM *vm.VM
}

// Group is M core simulators in lockstep over one shared memory system.
type Group struct {
	mems  []*core.MemSystem
	sims  []*core.Sim
	stats []core.Stats // copied out of the Sims when the run ends
	wheel bool
	done  bool
}

// New builds the group: shared memory system, one steppable simulator
// per tenant over that tenant's stream and address window.
func New(o Options) *Group {
	streams := o.Streams
	if len(streams) == 0 {
		for _, tr := range o.Traces {
			streams = append(streams, trace.Compact(tr))
		}
	}
	n := len(streams)
	if n < 1 {
		panic("tenant: need at least one trace")
	}
	g := &Group{
		mems:  core.NewTenantMemSystems(o.Kind, o.Tim, o.Lanes, o.BankL1, n, o.VM),
		sims:  make([]*core.Sim, n),
		stats: make([]core.Stats, n),
	}
	if ta, ok := o.Tim.Backend.(dram.TenantAware); ok && n > 1 {
		ta.EnableTenantStats(n)
	}
	for i, st := range streams {
		var base uint64
		if o.VM == nil {
			// Without address translation, disjoint tenant<<32 windows
			// fake the isolation real page tables provide.
			base = uint64(i) << RebaseShift
		}
		g.sims[i] = core.NewStreamSim(o.Core, g.mems[i], st, base)
	}
	g.wheel = o.Engine == engine.Wheel
	return g
}

// Run steps every tenant one cycle per round, in tenant order, until
// all traces retire, then settles each tenant's cycle count and drains
// the shared memory system once — the MSHR file's pending batch, then
// the backend's posted writes — so every counter read afterwards covers
// all the traffic the run generated. Lockstep keeps the interleaving
// deterministic: within a cycle, tenant i's accesses always reach the
// shared structures before tenant i+1's.
func (g *Group) Run() { g.RunSampled(nil) }

// RunSampled is Run with an interval sampler (nil = none): after every
// lockstep round it samples the registry whenever the group clock has
// crossed the next interval boundary, stamping each row with the cycle
// the engine actually reached (under the wheel a round can jump far past
// a boundary; the row records the landing cycle, so both engines produce
// one row per crossed boundary).
func (g *Group) RunSampled(s *stats.Sampler) {
	if g.done {
		return
	}
	var next int64
	if s != nil {
		next = s.Interval()
	}
	for {
		any := false
		for _, sim := range g.sims {
			if sim.Running() {
				sim.Step()
				any = true
			}
		}
		if !any {
			break
		}
		if g.wheel {
			g.skipRound()
		}
		if s == nil {
			continue
		}
		// The group clock is the furthest any tenant reached; finished
		// tenants' clocks freeze, running ones move in lockstep.
		now := int64(0)
		for _, sim := range g.sims {
			now = max(now, sim.Now())
		}
		if now >= next {
			s.Sample(now)
			for next <= now {
				next += s.Interval()
			}
		}
	}
	// Copies: Finish points into the Sim, and a caller that keeps a
	// tenant's result must not keep the window, its fill handles' slabs
	// and the whole memory system with it.
	for i, sim := range g.sims {
		g.stats[i] = *sim.Finish()
	}
	g.mems[0].Drain()
	g.done = true
}

// skipRound advances the whole group past cycles no tenant can act in:
// the lockstep barrier becomes an event — the group jumps to the
// EARLIEST wake-up any running tenant reports, and every running clock
// jumps together, so the within-cycle tenant ordering (and with it the
// shared-structure interleaving) is untouched. Each tenant's wake-up
// is sound against the shared memory system because contention only
// pushes completion bounds later, never earlier, and a skipped
// tenant's lazy-poll cycles are exactly the ones its own bound proves
// unobservable.
func (g *Group) skipRound() {
	t := int64(-1)
	for _, s := range g.sims {
		if !s.Running() {
			continue
		}
		w := s.NextWake()
		if w <= s.Now() {
			// This tenant acts next cycle, and every running clock reads
			// the same cycle: there is nothing to skip (Advance's shortcut).
			return
		}
		if t < 0 || w < t {
			t = w
		}
	}
	for _, s := range g.sims {
		if s.Running() {
			s.SkipTo(t)
		}
	}
}

// N is the tenant count.
func (g *Group) N() int { return len(g.sims) }

// Mem returns tenant i's view of the memory system. Index 0's view
// owns the shared structures (L2, MSHR file, backend).
func (g *Group) Mem(i int) *core.MemSystem { return g.mems[i] }

// Stats returns tenant i's core statistics: a copy taken when Run ended
// (zero before), so keeping it keeps nothing of the machine reachable.
func (g *Group) Stats(i int) *core.Stats { return &g.stats[i] }

// TenantStatsOf returns tenant i's backend stat shard, or nil when the
// backend cannot shard (no backend, or a single-tenant group).
func (g *Group) TenantStatsOf(i int) *dram.TenantStats {
	ta, ok := g.mems[0].Tim.Backend.(dram.TenantAware)
	if !ok || g.N() < 2 {
		return nil
	}
	return ta.TenantStatsOf(i)
}

// AttachTracer wires the cycle-stamped event tracer into the shared
// memory system (backend + MSHR file + prefetcher) and into every
// tenant's core pipeline (issue→commit spans and causal flow events);
// events separate per tenant through each request's Tenant.
func (g *Group) AttachTracer(tr *stats.Tracer) {
	g.mems[0].AttachTracer(tr)
	for i, s := range g.sims {
		s.SetTracer(tr, i)
	}
}

// Register wires the whole group into a stats registry: the shared
// structures once under their classic names (cache.l2, vmem.mshr,
// vmem.prefetch, dram, the shared half of vm.*), and each tenant's
// private shards — core, cache.l1, vmem, vm.tlb — under tenant.<i>.*,
// with the backend's per-tenant read-latency/bandwidth shard as
// tenant.<i>.dram. The only tenant of a group of one gets no prefix: its
// snapshot is the single-requestor simulator's, name for name.
func (g *Group) Register(reg *stats.Registry) {
	g.mems[0].RegisterShared(reg)
	for i, m := range g.mems {
		p := ""
		if g.N() > 1 {
			p = fmt.Sprintf("tenant.%d.", i)
		}
		reg.AddStruct(p+"core", g.sims[i].StatsRef())
		m.RegisterFrontEnd(reg, p)
		if ts := g.TenantStatsOf(i); ts != nil {
			reg.AddStruct(p+"dram", ts)
		}
	}
}
