package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// Stats is the outcome of one simulation.
type Stats struct {
	Cycles    int64
	Committed uint64
	ByKind    [isa.Kind3DMove + 1]uint64

	Mispredicts uint64

	// Forwarded counts loads served from the store queue (fully covered
	// by an older in-flight store) without touching the cache hierarchy.
	Forwarded uint64

	// Dispatch stall diagnostics (cycles in which dispatch stopped for
	// each reason; a cycle can be charged to at most one reason).
	StallROB, StallLSQ, StallRegs uint64

	// Non-blocking pipeline diagnostics. EarlyRetired counts
	// instructions that graduated while their memory completion was
	// still outstanding in the MSHR file; StallSB counts commit stalls
	// on a full store buffer.
	EarlyRetired uint64
	StallSB      uint64

	// CPI is the cycle-attribution stack (see cpi.go): every cycle the
	// sim executes or skips lands in exactly one bucket, and the
	// buckets sum to Cycles — bit-identically on both engines.
	CPI CPIStack
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

const (
	noProgressLimit = 1 << 20 // cycles without commits before declaring deadlock
)

type dep struct {
	seq    uint64
	usePtr bool // consume the 3dvmov pointer result, not the data result
}

type robEntry struct {
	in      *isa.Inst // the stream's shared template: Seq, Addr and Taken are zero
	seq     uint64
	valid   bool
	issued  bool
	done    int64
	donePtr int64
	q       queue
	deps    [5]dep
	ndeps   int
	addr    uint64 // effective address, tenant base included (memory kinds)
	lo, hi  uint64 // the byte range it touches (loads and stores)

	// pend tracks the entry's outstanding line misses in the MSHR file.
	// done then only covers port/bank occupancy and cache hits; the
	// data is architecturally complete when pend reports ready.
	// Always nil under the blocking model.
	pend *vmem.Pending

	// missed records (at issue) that the access filed main-memory
	// traffic, so the CPI stack can blame its wait on DRAM even under
	// the blocking model, where done absorbs the whole latency and
	// pend stays nil. hadWalk records (tracing only) that the access
	// had an in-flight translation transaction when it issued.
	missed  bool
	hadWalk bool

	// Issue-scan scheduling state (see wheel.go). An unissued entry
	// is either active — on its queue's evaluation list — or asleep
	// with a registered wake-up: a cycle on the sim's issueWake ring,
	// or (enlisted) a link on the blocking entry's waiter chain.
	// waiterHead/waiterNext store seq+1, 0 meaning none; the chain
	// threads through the waiters' own ROB entries.
	active     bool
	enlisted   bool
	waiterHead uint64
	waiterNext uint64

	// ready latches the verdict that nothing blocks the entry's issue
	// (the readiness walk found no blocker for readyBound or
	// issueBoundPark): the verdict is monotone, so later turns skip the
	// walk — see wheel.go.
	ready bool
}

type storeRec struct {
	seq    uint64
	lo, hi uint64
}

// pendRec is one scoreboard entry: the outstanding completion handle
// of a graduated instruction and the destination register it will
// eventually fill, so the rename mapping can be released once the data
// arrives.
type pendRec struct {
	seq uint64
	h   *vmem.Pending
	dst isa.Reg
}

// Sim is one processor instance bound to a memory system.
type Sim struct {
	cfg Config
	mem *MemSystem

	rob   []robEntry
	count int
	head  int // ROB ring index of the oldest entry

	// Rename: last uncommitted writer per (class, index).
	writer [6][32]uint64
	hasW   [6][32]bool

	inflight [6]int // uncommitted writers per register class

	lsqCount int
	// stores is a window of storeBuf, which holds 2·LSQ records: commit
	// pops the front, insert appends, and on reaching the tail slides
	// the live records (never more than LSQ) back to the front — an
	// amortised copy of under one record per store, and no reallocation.
	stores   []storeRec // uncommitted stores, program order
	storeBuf []storeRec

	simdBusyUntil  int64 // MOM single SIMD unit occupancy
	moverBusyUntil int64 // 3D->MOM register transfer datapath occupancy

	// Scoreboard for the non-blocking memory pipeline: instructions
	// that graduated with their miss still outstanding park their
	// handle here, so younger readers of the destination register keep
	// stalling on the true dependency after the ROB entry is gone.
	// Commit retires in order, so the records are sorted by sequence
	// number as appended: lookups are binary searches (scoreboard) and
	// there are never more of them than MSHRs. postedStores is the
	// store buffer: retired stores whose line fill is still in flight.
	pendBySeq    []pendRec
	postedStores []*vmem.Pending

	// Branch prediction state (gshare ablation).
	history        uint64
	pht            []int8
	mispredictSeq  uint64
	mispredictPend bool
	fetchResumeAt  int64

	// Stepping state, owned by Step so a Sim can be advanced one
	// cycle at a time interleaved with other requestors. The stream is
	// shared and read-only: cur reads it, at the next instruction to
	// dispatch. base is the requestor's address window, added to every
	// memory address at dispatch.
	cur             trace.Cursor
	base            uint64
	lastCommitCycle int64

	// issued is the one materialised instruction, filled at fire time
	// for the callees that take a whole *isa.Inst (vmem.System.Issue,
	// MemSystem.ScalarAccess, vm.Space.Ready). They must not keep the
	// pointer: the next memory issue overwrites what it points at.
	issued isa.Inst

	// Issue-scan state (see wheel.go). issueWake is the persistent
	// per-sim ring of sleeping entries' timed wake-ups; qActive
	// holds, per issue queue, the seqs that must actually be
	// evaluated this cycle — everything else is asleep with a
	// registered wake-up and is never touched.
	issueWake *engine.Ring
	qActive   [qCount][]uint64
	// issueNoSkip is the issue side's skip verdict, rebuilt by each
	// Step's scans so NextWake needs no walk of its own: it forces a
	// real step next cycle (an active entry needs a per-cycle re-check).
	issueNoSkip bool
	// robMask is Window-1 when Window is a power of two, letting
	// slot() mask instead of divide on the hottest path; 0 otherwise.
	robMask uint64

	// tr, when non-nil, receives issue/commit spans and causal flow
	// events (see spans.go); trTenant tags them with the requestor.
	tr       *stats.Tracer
	trTenant int

	now   int64
	stats Stats
}

// limits per class: in-flight writers must not exceed physical - logical.
// Accumulator and 3D-pointer results are tiny (192 and 7 bits) and flow
// through the forwarding network; their Table 3 register files are
// charged for area but do not gate dispatch — modeling them as strictly
// as the wide register files would serialize every accumulate chain on
// commit latency, a behavior the paper's results exclude.
func (s *Sim) classLimit(c isa.RegClass) int {
	switch c {
	case isa.RCVec:
		return s.cfg.PhysVec - s.cfg.LogVec
	case isa.RC3D:
		return s.cfg.Phys3D - s.cfg.Log3D
	}
	return 1 << 30
}

// NewSim is NewStreamSim for a caller holding a materialised trace: it
// compacts insts (whose Seq must count from 0) and runs the copy.
func NewSim(cfg Config, mem *MemSystem, insts []isa.Inst) *Sim {
	return NewStreamSim(cfg, mem, trace.Compact(insts), 0)
}

// NewStreamSim builds a simulator over a stream it only reads, advanced
// one cycle at a time via Step, or one step and a jump over dead cycles
// via Advance. The tenant front end steps one Sim per requestor in
// lockstep against a shared memory system, possibly all over one
// stream, each with its own base; SimulateStream is the reference loop
// a group of one is checked against.
func NewStreamSim(cfg Config, mem *MemSystem, stream *trace.Stream, base uint64) *Sim {
	s := &Sim{cfg: cfg, mem: mem, cur: stream.Cursor(), base: base,
		rob:      make([]robEntry, cfg.Window),
		storeBuf: make([]storeRec, 2*cfg.LSQ),
		// Spans the common wake distance (memory latency plus queueing);
		// rarer far-future bounds overflow to the ring's small heap.
		issueWake: engine.NewRing(1024)}
	if cfg.Window > 0 && cfg.Window&(cfg.Window-1) == 0 {
		s.robMask = uint64(cfg.Window - 1) // power-of-two window: slot() masks
	}
	// Each active list holds distinct in-window seqs (a scan's evaluated
	// slots included), so none outgrows the window: one allocation sizes
	// all three for the run.
	w := cfg.Window
	lists := make([]uint64, len(s.qActive)*w)
	for q := range s.qActive {
		s.qActive[q] = lists[q*w : q*w : (q+1)*w]
	}
	if cfg.UseGshare {
		s.pht = make([]int8, 1<<cfg.GshareBits)
	}
	return s
}

// Running reports whether another Step would do work: trace left to
// dispatch or instructions still in the window.
func (s *Sim) Running() bool {
	return s.cur.More() || s.count > 0
}

// Now returns the core's current cycle: the next one Step executes.
func (s *Sim) Now() int64 { return s.now }

// Step advances the pipeline one cycle in the same stage order the
// original monolithic loop used: prune, commit, issue, dispatch — then
// charges the cycle to its CPI bucket before the clock moves.
func (s *Sim) Step() {
	s.prunePending()
	committed := s.commit()
	if committed {
		s.lastCommitCycle = s.now
	}
	s.issue()
	s.dispatch()
	s.chargeCPI(1, committed)
	s.now++
	if s.now-s.lastCommitCycle > noProgressLimit {
		panic(fmt.Sprintf("core: no commit progress at cycle %d (trace pos %d/%d, rob %d)",
			s.now, s.cur.Pos(), s.cur.Len(), s.count))
	}
}

// StatsRef exposes the simulator's live counters (the same struct
// Finish returns) so a registry can be wired up before the run.
func (s *Sim) StatsRef() *Stats { return &s.stats }

// Finish settles the end-of-run cycle count once Running is false. The
// window is empty, but the non-blocking pipeline may still have misses
// in flight; the run ends when the last one lands. (The end-of-trace
// acts as the pipeline's only barrier — the ISA has no explicit fence
// instruction.) Finish does NOT drain the memory system: with a shared
// backend the caller drains once after every requestor has finished.
func (s *Sim) Finish() *Stats {
	s.stats.Cycles = s.now
	for _, rec := range s.pendBySeq {
		if d := rec.h.Done(); d > s.stats.Cycles {
			s.stats.Cycles = d
		}
	}
	for _, h := range s.postedStores {
		if d := h.Done(); d > s.stats.Cycles {
			s.stats.Cycles = d
		}
	}
	// The drain tail: cycles between the last executed step and the
	// last fill landing close the CPI stack's conservation invariant.
	if d := s.stats.Cycles - s.now; d > 0 {
		s.stats.CPI.Drain += uint64(d)
	}
	return &s.stats
}

// prunePending clears scoreboard entries whose data has arrived,
// releasing the rename mapping they held. It only consults already
// resolved state (Settled never forces the MSHR file to flush), so
// polling it every cycle does not perturb batch accumulation.
func (s *Sim) prunePending() {
	if len(s.pendBySeq) > 0 {
		live := s.pendBySeq[:0]
		for _, rec := range s.pendBySeq {
			if !rec.h.Settled(s.now) {
				live = append(live, rec)
				continue
			}
			if r := rec.dst; r.Valid() {
				c, i := r.Class(), r.Index()
				if s.hasW[c][i] && s.writer[c][i] == rec.seq {
					s.hasW[c][i] = false
				}
			}
		}
		s.pendBySeq = live
	}
	if len(s.postedStores) > 0 {
		live := s.postedStores[:0]
		for _, h := range s.postedStores {
			if !h.Settled(s.now) {
				live = append(live, h)
			}
		}
		s.postedStores = live
	}
}

// slot maps a sequence number to its index in the ROB ring.
func (s *Sim) slot(seq uint64) int {
	if s.robMask != 0 {
		return int(seq & s.robMask)
	}
	return int(seq % uint64(s.cfg.Window))
}

func (s *Sim) entry(seq uint64) *robEntry {
	e := &s.rob[s.slot(seq)]
	if e.valid && e.seq == seq {
		return e
	}
	return nil // already committed
}

// scoreboard returns the fill handle of the graduated instruction seq
// while its data is still outstanding, nil once the value is in the
// register file.
func (s *Sim) scoreboard(seq uint64) *vmem.Pending {
	if len(s.pendBySeq) == 0 {
		return nil // the common case: nothing graduated early
	}
	i, ok := slices.BinarySearchFunc(s.pendBySeq, seq,
		func(r pendRec, seq uint64) int { return cmp.Compare(r.seq, seq) })
	if !ok {
		return nil
	}
	return s.pendBySeq[i].h
}

// commit retires up to CommitWidth completed instructions in order. An
// instruction whose port/bank occupancy is done but whose line miss is
// still outstanding retires early: its destination register stays
// busy on the scoreboard (pendBySeq) so true dependents keep waiting,
// while independent younger instructions stream past — the
// out-of-order memory completion the MSHR file enables. Retired stores
// with outstanding fills occupy the store buffer; commit stalls when
// it is full.
func (s *Sim) commit() bool {
	n := 0
	for n < s.cfg.CommitWidth && s.count > 0 {
		e := &s.rob[s.head]
		if !e.issued || e.done > s.now {
			break
		}
		if s.sbBlocked(e) {
			// Force the oldest posted store toward resolution (ReadyBy
			// flushes once its lower bound passes) and retry next cycle.
			s.stats.StallSB++
			s.postedStores[0].ReadyBy(s.now)
			break
		}
		in := e.in
		outstanding := e.pend != nil && !e.pend.Settled(s.now)
		// Release rename state. A destination still waiting on memory
		// keeps its mapping: the scoreboard owns it until the fill
		// lands (prunePending clears it).
		keepDst := outstanding && in.Dst.Valid()
		s.release(in.Dst, e.seq, keepDst)
		if in.Op == isa.Op3DVMov {
			s.release(in.Ptr, e.seq, false)
		}
		if outstanding {
			s.stats.EarlyRetired++
			s.pendBySeq = append(s.pendBySeq, pendRec{seq: e.seq, h: e.pend, dst: in.Dst})
			if in.IsStore {
				s.postedStores = append(s.postedStores, e.pend)
			}
		}
		if in.Kind.IsMem() {
			s.lsqCount--
			if in.IsStore && len(s.stores) > 0 && s.stores[0].seq == e.seq {
				s.stores = s.stores[1:]
			}
		}
		s.stats.Committed++
		s.stats.ByKind[in.Kind]++
		if s.tr != nil {
			s.traceCommit(e)
		}
		e.valid = false
		s.head = s.slot(uint64(s.head) + 1)
		s.count--
		n++
	}
	return n > 0
}

// sbBlocked reports whether the completed entry e is a store the full
// store buffer refuses: its fill is still outstanding, so retiring it
// would post one store more than the buffer holds.
func (s *Sim) sbBlocked(e *robEntry) bool {
	return e.in.IsStore && s.cfg.StoreBuf > 0 && len(s.postedStores) >= s.cfg.StoreBuf &&
		!e.pend.Settled(s.now) // a nil handle is settled
}

// release frees one rename mapping at commit. keepMapping leaves the
// writer visible (the scoreboard case: the physical register slot is
// recycled for dispatch accounting, but readers must still find the
// in-flight producer).
func (s *Sim) release(r isa.Reg, seq uint64, keepMapping bool) {
	if !r.Valid() {
		return
	}
	c, i := r.Class(), r.Index()
	if !keepMapping && s.hasW[c][i] && s.writer[c][i] == seq {
		s.hasW[c][i] = false
	}
	s.inflight[c]--
}

// issue selects ready instructions oldest-first from each queue, bounded
// by the per-queue issue widths and functional unit structure. Each
// queue's fire grants e its unit and returns (done, 0), or refuses it
// and returns (0, retry): the cycle the unit frees, which nothing can
// move earlier, so the scan parks e there (see wheel.go).
func (s *Sim) issue() {
	// Reset this step's issue-side skip verdict; the scans below,
	// wakeWaiters, and insert re-establish it (see wheel.go).
	s.issueNoSkip = false
	s.drainWakes() // move entries whose timed wake-up is due back to active

	// Integer pipeline.
	s.issueQueue(qInt, s.cfg.IntIssue, func(e *robEntry) (int64, int64) {
		return s.now + int64(e.in.Op.Class().Latency()), 0
	})

	// Multimedia pipeline.
	momStyle := s.cfg.SIMDFUs == 1 && s.cfg.Lanes > 1
	s.issueQueue(qSIMD, s.cfg.SIMDIssue, func(e *robEntry) (int64, int64) {
		lat := int64(e.in.Op.Class().Latency())
		if !momStyle {
			return s.now + lat, 0
		}
		if s.simdBusyUntil > s.now {
			return 0, s.simdBusyUntil
		}
		occ := simdOccupancy(e.in, s.cfg.Lanes)
		s.simdBusyUntil = s.now + occ
		return s.now + occ - 1 + lat, 0
	})

	// Memory pipeline. Every issue slot has its own L1 port (Table 2
	// sets as many ports as memory issue slots).
	s.issueQueue(qMem, s.cfg.MemIssue, func(e *robEntry) (int64, int64) {
		if e.in.Op == isa.Op3DVMov {
			// A register-file transfer: Lanes elements/cycle over the
			// dedicated 3D datapath; the pointer update resolves in one
			// cycle.
			if s.moverBusyUntil > s.now {
				return 0, s.moverBusyUntil
			}
			occ := simdOccupancy(e.in, s.cfg.Lanes)
			s.moverBusyUntil = s.now + occ
			e.donePtr = s.now + 1
			return s.now + occ - 1 + int64(e.in.Op.Class().Latency()), 0
		}
		if !e.in.IsStore && s.forwardable(e) {
			// Store-to-load forwarding: the load's bytes are entirely
			// covered by an older in-flight store, so the LSQ supplies
			// them without a cache access.
			s.stats.Forwarded++
			return s.now + 2, 0
		}
		// Address translation gates issue: every page the access touches
		// must resolve before the access may fire. The stall is an
		// idempotent transaction keyed by seq that resolves at a fixed
		// cycle, so the retry there retires it exactly once (see
		// internal/vm).
		in := s.materialise(e)
		if sp := s.mem.Tim.VA; sp != nil {
			if s.tr != nil && sp.InFlight(e.seq) {
				e.hadWalk = true // peek before Ready retires the transaction
			}
			if until := sp.Ready(in, e.seq, s.now); until > s.now {
				return 0, until
			}
		}
		sig := s.missSig()
		var done int64
		if e.in.Kind.IsVectorMem() {
			done, e.pend = s.mem.VM.Issue(in, s.now)
		} else {
			done, e.pend = s.mem.ScalarAccess(in, s.now)
		}
		e.missed = e.pend != nil || s.missSig() != sig
		return done, 0
	})
}

// materialise fills the scratch instruction from e, valid until the
// next call.
func (s *Sim) materialise(e *robEntry) *isa.Inst {
	s.issued = *e.in
	s.issued.Seq, s.issued.Addr = e.seq, e.addr
	return &s.issued
}

// forwardable reports whether an older in-flight issued store fully
// covers the load's byte range.
func (s *Sim) forwardable(e *robEntry) bool {
	for _, st := range s.stores {
		if st.seq >= e.seq {
			break
		}
		if st.lo <= e.lo && e.hi <= st.hi {
			p := s.entry(st.seq)
			if p != nil && p.issued {
				return true
			}
		}
	}
	return false
}

// dispatch brings up to FetchWidth instructions into the window, stopping
// at resource exhaustion or a taken branch (fetch break).
func (s *Sim) dispatch() {
	if s.mispredictPend {
		e := s.entry(s.mispredictSeq)
		if e == nil || (e.issued && e.done <= s.now) {
			resolve := s.now
			if e != nil {
				resolve = e.done
			}
			s.fetchResumeAt = resolve + s.cfg.MispredictPenalty
			s.mispredictPend = false
		} else {
			return
		}
	}
	if s.now < s.fetchResumeAt {
		return
	}
	for n := 0; n < s.cfg.FetchWidth && s.cur.More(); n++ {
		if c := s.dispatchStall(s.cur.Peek()); c != nil {
			*c++
			break
		}
		seq := uint64(s.cur.Pos())
		in, addr, taken := s.cur.Next()
		s.insert(in, seq, addr)
		if in.Kind == isa.KindBranch {
			if s.cfg.UseGshare && s.predict(taken) != taken {
				s.stats.Mispredicts++
				s.mispredictPend = true
				s.mispredictSeq = seq
				break
			}
			if taken {
				break // fetch break on taken branches
			}
		}
	}
}

// dispatchStall returns the stall counter of the first dispatch gate
// that keeps in out of the window — a full ROB, then a full LSQ, then
// no free rename register — or nil when every gate is open.
func (s *Sim) dispatchStall(in *isa.Inst) *uint64 {
	switch {
	case s.count == s.cfg.Window:
		return &s.stats.StallROB
	case in.Kind.IsMem() && s.lsqCount == s.cfg.LSQ:
		return &s.stats.StallLSQ
	case !s.regsAvailable(in):
		return &s.stats.StallRegs
	}
	return nil
}

func (s *Sim) regsAvailable(in *isa.Inst) bool {
	if in.Dst.Valid() {
		c := in.Dst.Class()
		if s.inflight[c] >= s.classLimit(c) {
			return false
		}
	}
	if in.Op == isa.Op3DVMov && s.inflight[isa.RCPtr] >= s.classLimit(isa.RCPtr) {
		return false
	}
	return true
}

// insert renames and dispatches instruction seq — template in, address
// addr as recorded — into the window.
func (s *Sim) insert(in *isa.Inst, seq, addr uint64) {
	e := &s.rob[s.slot(seq)]
	*e = robEntry{in: in, seq: seq, valid: true, q: queueOf(in)}

	addDep := func(r isa.Reg, usePtr bool) {
		if !r.Valid() {
			return
		}
		c, i := r.Class(), r.Index()
		if s.hasW[c][i] {
			e.deps[e.ndeps] = dep{seq: s.writer[c][i], usePtr: usePtr}
			e.ndeps++
		}
	}
	addDep(in.Src1, false)
	addDep(in.Src2, false)
	if in.Ptr.Valid() {
		addDep(in.Ptr, true)
	}
	switch in.Op {
	case isa.OpVSadAcc, isa.OpVMacAcc, isa.OpVAddWAcc:
		addDep(in.Dst, false) // accumulators read-modify-write
	}

	setWriter := func(r isa.Reg) {
		if !r.Valid() {
			return
		}
		c, i := r.Class(), r.Index()
		s.writer[c][i] = seq
		s.hasW[c][i] = true
		s.inflight[c]++
	}
	setWriter(in.Dst)
	if in.Op == isa.Op3DVMov {
		setWriter(in.Ptr)
	}

	if in.Kind.IsMem() {
		s.lsqCount++
		e.addr = addr + s.base
		e.lo, e.hi = memRange(in, e.addr)
		if in.IsStore {
			if len(s.stores) == cap(s.stores) {
				s.stores = append(s.storeBuf[:0], s.stores...)
			}
			s.stores = append(s.stores, storeRec{seq: seq, lo: e.lo, hi: e.hi})
		}
	}

	// Park straight from dispatch when a registered wake-up covers the
	// entry; otherwise it is ready (or needs per-cycle polls) and must
	// be evaluated next cycle.
	if _, asleep := s.issueBoundPark(e); !asleep {
		s.activate(e)
		s.issueNoSkip = true
	}
	s.count++
}

// memRange returns the conservative [lo, hi) byte range a memory
// instruction touches at effective address addr, used for store-to-load
// ordering.
func memRange(in *isa.Inst, addr uint64) (lo, hi uint64) {
	first := int64(in.ElemAddr(addr, 0))
	last := int64(in.ElemAddr(addr, in.Elems()-1))
	if last < first {
		first, last = last, first
	}
	return uint64(first), uint64(last + int64(in.ElemBytes()))
}

// predict consults the gshare pattern history table and updates it with
// the actual outcome (traces carry perfect outcomes; the predictor is an
// ablation of the perfect-prediction default).
func (s *Sim) predict(taken bool) bool {
	idx := s.history & (uint64(len(s.pht)) - 1)
	ctr := s.pht[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		s.pht[idx]++
	}
	if !taken && ctr > 0 {
		s.pht[idx]--
	}
	s.history = s.history<<1 | uint64(boolBit(taken))
	return pred
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
