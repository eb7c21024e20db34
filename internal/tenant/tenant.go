// Package tenant is the multi-requestor front end: it runs M
// independent kernel traces (or M instances of one kernel) through a
// SHARED memory system — one L2, one MSHR file, one prefetcher, one
// DRAM backend — by stepping M core simulators round by round, one
// simulated cycle per round, in tenant order. Under the per-cycle engine
// every running tenant steps every cycle; under the wheel each tenant
// carries its own due cycle and a round steps only the tenants that are
// due, which leaves every counter where per-cycle lockstep puts it (see
// RunSampled). Each tenant keeps its own L1 and vector subsystem (one
// core per requestor), and every request a tenant creates names it
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
	"math"

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
	Engine  engine.Mode // simulation engine; Wheel steps a tenant only at its own wake-ups

	// Traces is the tenants as materialised traces, for callers that
	// hold no stream: New compacts each (trace.Compact) when Streams is
	// empty.
	Traces [][]isa.Inst

	// VM, when non-nil, gives tenant i the real virtual address space
	// VM.Space(i) over one shared physical pool instead of the
	// tenant<<32 address window: traces run at their native virtual
	// addresses, isolation comes from per-tenant page tables, and the
	// page pool's placement policy decides how the tenants' pages
	// interleave across DRAM channels and rows.
	VM *vm.VM
}

// Group is M core simulators over one shared memory system.
type Group struct {
	mems  []*core.MemSystem
	seats []seat
	// stats are copied out of the Sims when the run ends — not into seats:
	// Stats hands out pointers into this slice, and one into seats would
	// keep every Sim, and through it the machine, reachable.
	stats []core.Stats
	wheel bool
	done  bool

	// The round in progress: its cycle and the seat being stepped, for
	// catchUp, which runs inside that seat's Step. Fields rather than
	// variables of RunSampled a closure captures: those cost a group of
	// one 5–10 %.
	now int64
	cur int

	steps, cycles int64 // Step calls made; tenant-cycles they stand for
	work          core.Work
}

// seat is one tenant's place in the round: its simulator and the cycle
// its next Step is due — never once it has retired its trace.
type seat struct {
	sim *core.Sim
	due int64
}

const never = math.MaxInt64

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
		seats: make([]seat, n),
		stats: make([]core.Stats, n),
		wheel: o.Engine == engine.Wheel,
	}
	if ta, ok := g.mems[0].DRAM().(dram.TenantAware); ok && n > 1 {
		ta.EnableTenantStats(n)
	}
	for i, st := range streams {
		var base uint64
		if o.VM == nil {
			// Without address translation, disjoint tenant<<32 windows
			// fake the isolation real page tables provide.
			base = uint64(i) << RebaseShift
		}
		g.seats[i].sim = core.NewStreamSim(o.Core, g.mems[i], st, base)
	}
	if f := g.mems[0].MSHR(); f != nil && g.wheel && n > 1 {
		f.BeforeFlush(g.catchUp)
	}
	return g
}

// Run steps the tenants round by round, in tenant order, until all
// traces retire, then settles each tenant's cycle count and drains the
// shared memory system once — the MSHR file's pending batch, then the
// backend's posted writes — so every counter read afterwards covers all
// the traffic the run generated. The rounds keep the interleaving
// deterministic: within a cycle, tenant i's accesses always reach the
// shared structures before tenant i+1's.
func (g *Group) Run() { g.RunSampled(nil) }

// RunSampled is Run with an interval sampler (nil = none): it samples
// the registry at every multiple of the interval the run reaches, so
// both engines record the same rows at the same cycles.
//
// A round at cycle t steps, in tenant order, the tenants that are due —
// SkipTo(t), which bulk-charges the cycles slept through, then Step —
// and the group clock moves to the earliest due cycle or the next
// sampling boundary, whichever comes first. Under engine.Step a tenant
// is due again at t+1: per-cycle lockstep. Under the wheel it is due at
// the NextWake it reports right after its own Step, so a tenant with
// nothing to do is not stepped, and a round at a boundary every tenant
// sleeps past steps no one.
//
// Why sleeping is sound — every counter lands where lockstep puts it:
//
//   - The Steps not made are no-ops. NextWake is a lower bound on the
//     first cycle a Step could do anything (wheel.go), and what other
//     tenants do meanwhile — the rest of this round included — only moves
//     a sleeper's bounds later: a fill completes no earlier than arrival
//     plus the backend's minimum latency, and contention adds to that. A
//     wake-up that has become early is the no-op Step lockstep executes.
//   - A sleeper touches no shared structure, so every awake tenant's
//     accesses reach the L2, MSHR file, prefetcher, walker and backend at
//     the same cycles in the same within-cycle order.
//   - What remains of a no-op Step is its CPI charge, which SkipTo makes
//     in bulk from the verdict at the sleeper's own clock. The one input
//     of that verdict another tenant can change is what MSHRFile.flush
//     settles into the handles (completions, and the QoS budget that
//     TakeQoSYield splits into qos_yield / mshr_full / dram_wait), so
//     catchUp runs before a flush resolves anything: the cycles up to
//     it are charged on the state before it, the rest later, on what it left.
//   - A sampler row reads the CPI stacks, so every running tenant is
//     brought to the row's cycle first; no tenant acts in between.
func (g *Group) RunSampled(s *stats.Sampler) {
	if g.done {
		return
	}
	boundary := int64(never)
	if s != nil {
		boundary = s.Interval()
	}
	for running := len(g.seats); running > 0; {
		t, next := g.now, int64(never)
		for i := range g.seats {
			st := &g.seats[i]
			if st.due <= t {
				g.cur = i
				if st.sim.Now() < t {
					st.sim.SkipTo(t)
				}
				st.sim.Step()
				g.steps++
				switch {
				case !st.sim.Running():
					st.due = never
					running--
				case g.wheel:
					st.due = st.sim.NextWake()
				default:
					st.due = t + 1
				}
			}
			next = min(next, st.due)
		}
		if next == never {
			next = t + 1 // the round that retired the last tenant
		}
		g.now = min(next, boundary)
		if g.now == boundary {
			g.cur = -1 // between rounds: no seat has executed cycle boundary
			g.catchUp()
			s.Sample(boundary)
			boundary += s.Interval()
		}
	}
	// Copies: Finish points into the Sim, and a caller that keeps a
	// tenant's result must not keep the window, its fill handles' slabs
	// and the whole memory system with it.
	for i := range g.seats {
		sim := g.seats[i].sim
		g.cycles += sim.Now()
		g.stats[i] = *sim.Finish()
		g.work.Add(sim.Work())
	}
	g.mems[0].Drain()
	g.done = true
}

// Release hands the group's cache arrays to the next machine. Call it
// only after Run: a released cache panics on its next access.
func (g *Group) Release() {
	for _, m := range g.mems {
		m.L1.Release()
		m.L2.Release() // shared, so released once: Release is idempotent
	}
}

// catchUp brings every running tenant's clock to where lockstep has it
// while seat g.cur executes cycle g.now: the seats ahead of it in the
// round have executed that cycle, the seats behind it have not. A retired
// tenant's clock stays where it stopped.
func (g *Group) catchUp() {
	for i := range g.seats {
		st := &g.seats[i]
		switch {
		case st.due == never || i == g.cur:
		case i < g.cur:
			st.sim.SkipTo(g.now + 1)
		default:
			st.sim.SkipTo(g.now)
		}
	}
}

// Steps is the Step calls the run made; TenantCycles is what per-cycle
// lockstep makes of it: every tenant's clock when its trace retired,
// summed. The difference is the wheel's saving.
func (g *Group) Steps() int64        { return g.steps }
func (g *Group) TenantCycles() int64 { return g.cycles }

// Work is the host work of every tenant's pipeline, summed when Run
// ended (zero before).
func (g *Group) Work() core.Work { return g.work }

// N is the tenant count.
func (g *Group) N() int { return len(g.seats) }

// Mem returns tenant i's view of the memory system. Index 0's view
// owns the shared structures (L2, MSHR file, backend).
func (g *Group) Mem(i int) *core.MemSystem { return g.mems[i] }

// Stats returns tenant i's core statistics: a copy taken when Run ended
// (zero before), so keeping it keeps nothing of the machine reachable.
func (g *Group) Stats(i int) *core.Stats { return &g.stats[i] }

// TenantStatsOf returns tenant i's backend stat shard, or nil when there
// is none (a single-tenant group, or a backend that cannot shard).
func (g *Group) TenantStatsOf(i int) *dram.TenantStats {
	ta, ok := g.mems[0].DRAM().(dram.TenantAware)
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
	for i := range g.seats {
		g.seats[i].sim.SetTracer(tr, i)
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
		reg.AddStruct(p+"core", g.seats[i].sim.StatsRef())
		m.RegisterFrontEnd(reg, p)
		if ts := g.TenantStatsOf(i); ts != nil {
			reg.AddStruct(p+"dram", ts)
		}
	}
}
