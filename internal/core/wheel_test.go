package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// The wheel engine's correctness bar is absolute: not "close", but
// bit-identical to per-cycle stepping on every statistic the registry
// exports — including stall-cycle charges and the MSHR flush/occupancy
// counters that observe WHEN lazy batches were flushed, not just what
// they contained. These tests hold the wheel to that bar. Both engines
// run the same issue scan, so what skip-on ≡ skip-off proves is the
// skipping (NextWake's bounds, SkipTo's bulk charges); that the scan
// itself parks nothing that could issue is TestSleepersAreNeverReady's
// claim, and that its numbers are those of a scan that re-walked every
// entry every cycle is what the golden table and the frozen full-size
// digests (cmd/momexp) hold.

// TestWheelMatchesStepGolden regenerates the entire checked-in
// golden-stats table (all 54 rows) through the wheel engine. Any
// divergence from the pinned table is a wheel bug by definition.
func TestWheelMatchesStepGolden(t *testing.T) {
	want := loadGolden(t)
	got := measureGoldenEngine(t, func(spec string) string { return spec }, engine.Wheel)
	if len(want) != len(got) {
		t.Errorf("golden table has %d rows, wheel measured %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: configuration not measured", key)
			continue
		}
		if g != w {
			t.Errorf("%s: wheel diverged from the golden table:\n  golden %s\n  wheel  %s", key, w, g)
		}
	}
}

// engineSnapshot runs one configuration under one engine and returns
// the full registry snapshot as its (key-sorted) JSON export.
func engineSnapshot(t *testing.T, bm kernels.Benchmark, v kernels.Variant,
	kind MemKind, spec string, mut func(*Config), mode engine.Mode) string {
	t.Helper()
	return driveSnapshot(t, bm, v, kind, spec, mut, runOn(mode))
}

// runOn is the drive of a whole run on one engine.
func runOn(mode engine.Mode) func(*Sim) {
	return func(s *Sim) {
		for s.Running() {
			if mode == engine.Wheel {
				s.Advance()
			} else {
				s.Step()
			}
		}
	}
}

// driveSnapshot is engineSnapshot with the clock in the caller's hands:
// drive advances the fresh Sim until it stops running.
func driveSnapshot(t *testing.T, bm kernels.Benchmark, v kernels.Variant,
	kind MemKind, spec string, mut func(*Config), drive func(*Sim)) string {
	t.Helper()
	var backend dram.Backend
	var knobs dram.Knobs
	if spec != "" {
		b, k, err := dram.ParseSpecFull(spec, 100)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		backend, knobs = b, k
	}
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}
	if knobs.VA != "" {
		vmsys, err := NewVM(knobs.VA, 1, backend)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		tim.VA = vmsys.Space(0)
	}
	return timSnapshot(t, bm, v, kind, tim, mut, drive)
}

// timSnapshot is driveSnapshot over a Timing the caller built.
func timSnapshot(t *testing.T, bm kernels.Benchmark, v kernels.Variant,
	kind MemKind, tim vmem.Timing, mut func(*Config), drive func(*Sim)) string {
	t.Helper()
	tr := &trace.Trace{}
	bm.Run(v, tr)
	cfg := MOMCore()
	if v == kernels.MMX {
		cfg = MMXCore()
	}
	if mut != nil {
		mut(&cfg)
	}
	ms := NewMemSystem(kind, tim, cfg.Lanes, v == kernels.MMX && kind != MemIdeal)
	s := NewSim(cfg, ms, tr.Insts)
	drive(s)
	st := s.Finish()
	ms.Drain() // the banked part's posted writes included
	reg := stats.NewRegistry()
	st.Register(reg)
	ms.Register(reg)
	var b strings.Builder
	if err := reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireEngineMatch asserts wheel == step on the full snapshot.
func requireEngineMatch(t *testing.T, name string, bm kernels.Benchmark,
	v kernels.Variant, kind MemKind, spec string, mut func(*Config)) {
	t.Helper()
	step := engineSnapshot(t, bm, v, kind, spec, mut, engine.Step)
	wheel := engineSnapshot(t, bm, v, kind, spec, mut, engine.Wheel)
	if step != wheel {
		t.Errorf("%s: wheel snapshot diverged from step\n--- step ---\n%s--- wheel ---\n%s",
			name, step, wheel)
	}
}

// TestWheelMatchesStepSnapshots crosses benchmarks × backends × vmem
// knobs (mshr, prefetch, row policies, timing profiles) and requires
// every registered counter, gauge and histogram to match bit for bit.
func TestWheelMatchesStepSnapshots(t *testing.T) {
	specs := []string{
		"", // no backend named: NewMemSystem's dram.Fixed
		"fixed",
		"sdram/line/frfcfs",
		"sdram/bank/fcfs/ddr",
		"sdram/line/frfcfs/hbm",
		"sdram/line/frfcfs/mshr1",
		"sdram/line/frfcfs/mshr8",
		"sdram/line/frfcfs/hbm/mshr16/pf8d2",
		"sdram/line/frfcfs/mshr16/rphistory/pf8",
		"sdram/bank/frfcfs/ddr/mshr8/rphistory",
		"sdram/line/frfcfs/rpclose",
	}
	benches := []kernels.Benchmark{
		GSMEnc(),
		MPEG2Enc(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
	for _, bm := range benches {
		for _, spec := range specs {
			name := fmt.Sprintf("%s/mom3d/%s", bm.Name, spec)
			requireEngineMatch(t, name, bm, kernels.MOM3D, MemVectorCache3D, spec, nil)
		}
		// The other ISA pipelines on a representative backend each.
		requireEngineMatch(t, bm.Name+"/mom", bm, kernels.MOM, MemVectorCache,
			"sdram/line/frfcfs/mshr8", nil)
		requireEngineMatch(t, bm.Name+"/mmx", bm, kernels.MMX, MemMultiBanked,
			"sdram/line/frfcfs", nil)
	}
	// Ideal memory: dispatch/issue-only dead time.
	requireEngineMatch(t, "gsmencode/ideal", GSMEnc(), kernels.MOM, MemIdeal, "", nil)
}

// TestWheelMatchesStepVA pins the address-translation issue path under
// the wheel: a TLB-miss stall parks the refused entry until its walk
// completes, and under mshr the walk's lazy completion races the MSHR
// fill wake-ups — the step oracle executes every cycle between them,
// the wheel only the event boundaries, so every registered counter
// matching bit for bit proves the translation transactions retire
// identically.
func TestWheelMatchesStepVA(t *testing.T) {
	specs := []string{
		"sdram/bank/frfcfs/va",
		"sdram/bank/frfcfs/vacolor",
		"sdram/bank/frfcfs/vacolo",
		"sdram/bank/frfcfs/mshr8/va",
		"sdram/bank/frfcfs/hbm/mshr16/pf8d2/vacolor",
		"fixed/mshr8/va",
	}
	benches := []kernels.Benchmark{
		GSMEnc(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
	for _, bm := range benches {
		for _, spec := range specs {
			name := fmt.Sprintf("%s/mom3d/%s", bm.Name, spec)
			requireEngineMatch(t, name, bm, kernels.MOM3D, MemVectorCache3D, spec, nil)
		}
		// The scalar issue path's TLB stall: MMX over the multi-banked
		// L1, MOM without 3D.
		requireEngineMatch(t, bm.Name+"/mom/va", bm, kernels.MOM, MemVectorCache,
			"sdram/bank/frfcfs/mshr8/vacolor", nil)
		requireEngineMatch(t, bm.Name+"/mmx/va", bm, kernels.MMX, MemMultiBanked,
			"sdram/bank/frfcfs/va", nil)
	}
}

// TestWheelMatchesStepStoreBuffer pins the store-buffer-full skip path
// (sbBlocked's verdict bulk-charged by SkipTo, plus the oldest posted
// store's flush poll) with a 1-entry buffer, the configuration
// TestStoreBufferBounds uses.
func TestWheelMatchesStepStoreBuffer(t *testing.T) {
	sb1 := func(c *Config) { c.StoreBuf = 1 }
	for _, bm := range []kernels.Benchmark{GSMEnc(), MPEG2Enc()} {
		requireEngineMatch(t, bm.Name+"/sb1", bm, kernels.MOM3D,
			MemVectorCache3D, "sdram/line/frfcfs/mshr8", sb1)
		requireEngineMatch(t, bm.Name+"/sb1/pf", bm, kernels.MOM3D,
			MemVectorCache3D, "sdram/line/frfcfs/hbm/mshr16/pf8d2", sb1)
	}
}

// TestMidScanWakeTakesWidthInOrder pins the order in which a scan
// evaluates an entry woken mid-scan. A load chained on an older store
// that it overlaps wakes when the store issues; being older than a ready
// disjoint load behind it, it must take the cycle's last memory issue
// slot (MOM issues two) ahead of that load, as an in-order pass over
// the whole queue would.
func TestMidScanWakeTakesWidthInOrder(t *testing.T) {
	insts := seqify([]isa.Inst{
		{Op: isa.OpStore, Kind: isa.KindScalarMem, Imm: 8, Addr: 0x100, IsStore: true},
		{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: isa.R(1), Imm: 8, Addr: 0x100},
		{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: isa.R(2), Imm: 8, Addr: 0x200},
	})
	s := NewSim(MOMCore(), idealMem(), insts)
	s.Step() // dispatch
	store, waiter, younger := s.entry(0), s.entry(1), s.entry(2)
	if store == nil || waiter == nil || younger == nil || !waiter.enlisted || !younger.active {
		t.Fatal("after dispatch the overlapping load must wait on the store's chain and the disjoint load be active")
	}
	for !store.issued && s.now < 10 {
		s.Step()
	}
	if !store.issued || !waiter.issued || younger.issued {
		t.Errorf("the cycle the store issued: woken load issued %v, younger ready load issued %v; want true, false",
			waiter.issued, younger.issued)
	}
}

// TestNaiveScanMatches holds the issue scan to the one it stands for: a
// scan that every cycle evaluates every unissued window entry in age
// order, polling each, until its queue's width is spent — the scan that
// wrote the frozen digests. Before every Step, wakeAll puts every
// unissued entry on its queue's active list, off any waiter chain (a
// stale ring wake-up then finds its entry active and does nothing).
// The run must match the scan's own, counter for counter, on
// every pipeline over the flat latency, an MSHR file, and a deep file
// with the prefetcher. Mutation-checked: a refused entry woken a cycle
// after its unit frees, a mid-scan insertion that drops its last
// arrival, and a waiter parked a cycle past its producer's done time
// each fail here.
func TestNaiveScanMatches(t *testing.T) {
	pipelines := []struct {
		v    kernels.Variant
		kind MemKind
	}{{kernels.MOM3D, MemVectorCache3D}, {kernels.MOM, MemVectorCache}, {kernels.MMX, MemMultiBanked}}
	for _, bm := range []kernels.Benchmark{GSMEnc(), MPEG2Enc(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig())} {
		for _, p := range pipelines {
			for _, spec := range []string{"", "sdram/line/frfcfs/mshr8", "sdram/line/frfcfs/hbm/mshr16/pf8d2"} {
				want := engineSnapshot(t, bm, p.v, p.kind, spec, nil, engine.Step)
				got := driveSnapshot(t, bm, p.v, p.kind, spec, nil, func(s *Sim) {
					for s.Running() {
						wakeAll(s)
						s.Step()
					}
				})
				if got != want {
					t.Errorf("%s/%s/%s: the naive scan diverged from the issue scan\n--- scan ---\n%s--- naive ---\n%s",
						bm.Name, p.v, spec, want, got)
				}
			}
		}
	}
}

// wakeAll empties the waiter chains and puts every unissued window
// entry, oldest first, on its queue's active list.
func wakeAll(s *Sim) {
	for q := range s.qActive {
		s.qActive[q], s.qSorted[q] = s.qActive[q][:0], 0
	}
	for k := 0; k < s.count; k++ {
		e := &s.rob[s.slot(uint64(s.head+k))]
		e.waiterHead, e.waiterNext, e.enlisted = 0, 0, false
		if !e.issued {
			s.activate(e)
		}
	}
}

// sleeperSpecs are the backends the mid-run tests cross: the flat
// latency (the dram.Fixed NewMemSystem builds when none is named), the
// non-blocking pipeline over the banked part, and a deep MSHR file with
// the stream prefetcher riding it.
var sleeperSpecs = []string{"", "sdram/line/frfcfs/mshr8", "sdram/line/frfcfs/mshr64/pf8d4"}

// TestEngineSwitchMidRun changes engine every n cycles, in both
// directions, and requires the registry snapshot of a pure per-cycle
// run: with one issue scan there is no per-engine state to adopt, so a
// hand-stepped caller may mix Step and Advance freely.
func TestEngineSwitchMidRun(t *testing.T) {
	for _, bm := range []kernels.Benchmark{GSMEnc(), MPEG2Enc(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig())} {
		for _, spec := range sleeperSpecs {
			want := engineSnapshot(t, bm, kernels.MOM3D, MemVectorCache3D, spec, nil, engine.Step)
			for _, n := range []int{1, 7, 500} {
				for _, wheelFirst := range []bool{false, true} {
					got := driveSnapshot(t, bm, kernels.MOM3D, MemVectorCache3D, spec, nil, func(s *Sim) {
						wheel := wheelFirst
						for calls := 0; s.Running(); calls++ {
							if calls > 0 && calls%n == 0 {
								wheel = !wheel
							}
							if wheel {
								s.Advance()
							} else {
								s.Step()
							}
						}
					})
					if got != want {
						t.Errorf("%s/%s: switching every %d calls (wheel first: %v) diverged from pure step\n--- step ---\n%s--- switched ---\n%s",
							bm.Name, spec, n, wheelFirst, want, got)
					}
				}
			}
		}
	}
}

// TestSleepersAreNeverReady checks the issue scan's parking from the
// outside. It hand-steps with Step() only and, after every cycle,
// classifies every valid unissued ROB entry from the raw fields —
// never calling firstBlocker, the readiness walk under test, and
// reading fill handles through the poll-free Bound only, so the check
// cannot flush a batch the run would not. Each entry must be in exactly one place:
// on its queue's active list (once), on the waiter chain of an older
// entry that has not issued, or asleep — and then something must be
// holding it that time alone resolves no earlier than the cycle its
// wake-up is registered for: a producer still executing, or a fill
// whose lower bound lies ahead, or — for an entry whose operands are
// ready — the unit that refused it, still busy past that cycle (a SIMD
// unit or 3D mover occupied, a translation stall unresolved). An entry
// asleep with nothing holding it is an instruction the scan would never
// look at again.
func TestSleepersAreNeverReady(t *testing.T) {
	forEachSleeperCell(t, func(name string, s *Sim) {
		for s.Running() && !t.Failed() {
			s.Step()
			checkSleepers(t, name, s)
		}
	})
}

// TestPollFreeWalkDoesNotFlush holds firstBlocker's poll-free mode to
// its contract: the walk the CPI classifier and issueBoundPark run on
// entries that get no turn must not flush an MSHR batch the run would
// not. After every Step it walks every valid unissued entry without
// polls and requires the MSHR file's flush counters unmoved and no
// ready latch set. Mutation-checked: a poll-free walk that asks
// ReadyBy fails here within the first cells.
func TestPollFreeWalkDoesNotFlush(t *testing.T) {
	walked := 0
	forEachSleeperCell(t, func(name string, s *Sim) {
		f := s.mem.Tim.MSHR
		for s.Running() && !t.Failed() {
			s.Step()
			var before vmem.MSHRStats
			if f != nil {
				before = *f.Stats()
			}
			for i := range s.rob {
				e := &s.rob[i]
				if !e.valid || e.issued {
					continue
				}
				ready := e.ready
				s.firstBlocker(e, false)
				walked++
				if e.ready != ready {
					t.Errorf("%s cycle %d: the poll-free walk set seq %d's ready latch", name, s.now-1, e.seq)
				}
			}
			if f != nil {
				if st := f.Stats(); st.Flushes != before.Flushes || st.FlushedReqs != before.FlushedReqs {
					t.Errorf("%s cycle %d: the poll-free walk flushed the MSHR file (flushes %d -> %d, requests %d -> %d)",
						name, s.now-1, before.Flushes, st.Flushes, before.FlushedReqs, st.FlushedReqs)
				}
			}
		}
	})
	if walked == 0 {
		t.Error("no unissued entry was ever walked: the check saw nothing")
	}
}

// forEachSleeperCell builds every cell the raw-ROB-field checks cross —
// each small kernel on MOM+3D, the other two pipelines on one kernel
// each, over sleeperSpecs — and hands its fresh Sim to clock to run.
func forEachSleeperCell(t *testing.T, clock func(name string, s *Sim)) {
	type cell struct {
		bm   kernels.Benchmark
		v    kernels.Variant
		kind MemKind
	}
	var cells []cell
	for _, bm := range equivBenches() {
		cells = append(cells, cell{bm, kernels.MOM3D, MemVectorCache3D})
	}
	// The other two pipelines, on one kernel each.
	cells = append(cells, cell{JPEGEnc(), kernels.MOM, MemVectorCache}, cell{JPEGEnc(), kernels.MMX, MemMultiBanked})
	for _, c := range cells {
		for _, spec := range sleeperSpecs {
			name := fmt.Sprintf("%s/%s/%s", c.bm.Name, c.v, spec)
			driveSnapshot(t, c.bm, c.v, c.kind, spec, nil, func(s *Sim) { clock(name, s) })
		}
	}
}

// rawEntry finds seq's ROB entry from the raw ring, without Sim.entry.
func rawEntry(s *Sim, seq uint64) *robEntry {
	e := &s.rob[seq%uint64(len(s.rob))]
	if e.valid && e.seq == seq {
		return e
	}
	return nil
}

// checkSleepers asserts the placement invariant on the state Step left
// behind. The cycle just executed is s.now-1: wake-ups registered for
// s.now are still on the ring, to be drained by the next Step.
func checkSleepers(t *testing.T, name string, s *Sim) {
	t.Helper()
	at := s.now - 1
	onList := map[uint64]int{}
	for q := range s.qActive {
		for _, seq := range s.qActive[q] {
			onList[seq]++
			if e := rawEntry(s, seq); e == nil || e.issued || !e.active || int(e.q) != q {
				t.Errorf("%s cycle %d: queue %d's active list holds seq %d, which is not an active unissued entry of it", name, at, q, seq)
			}
		}
	}
	chained := map[uint64]int{}
	for i := range s.rob {
		p := &s.rob[i]
		if !p.valid || p.issued {
			continue
		}
		for h := p.waiterHead; h != 0; {
			w := rawEntry(s, h-1)
			if w == nil || w.seq <= p.seq {
				t.Errorf("%s cycle %d: seq %d's waiter chain reaches seq %d, not a younger live entry", name, at, p.seq, h-1)
				break
			}
			chained[w.seq]++
			h = w.waiterNext
		}
	}
	// held reports whether a fill handle still withholds its data past
	// the executed cycle, as far as poll-free state can tell.
	held := func(h interface{ Bound() (int64, bool) }) bool {
		b, _ := h.Bound()
		return b > at
	}
	for i := range s.rob {
		e := &s.rob[i]
		if !e.valid || e.issued {
			continue
		}
		places := onList[e.seq] + chained[e.seq]
		if e.active != (onList[e.seq] == 1) || e.enlisted != (chained[e.seq] == 1) || places > 1 {
			t.Errorf("%s cycle %d: seq %d active=%v on %d lists, enlisted=%v on %d chains",
				name, at, e.seq, e.active, onList[e.seq], e.enlisted, chained[e.seq])
		}
		if places != 0 {
			continue
		}
		blocked := false
		for _, d := range e.deps[:e.ndeps] {
			if p := rawEntry(s, d.seq); p != nil {
				if !p.issued {
					continue // no timer covers this one: only a chain link would
				}
				done := p.done
				if d.usePtr {
					done = p.donePtr
				}
				blocked = blocked || done > at || (!d.usePtr && p.pend != nil && held(p.pend))
			} else if !d.usePtr {
				for _, rec := range s.pendBySeq {
					blocked = blocked || (rec.seq == d.seq && held(rec.h))
				}
			}
		}
		if !blocked && !unitHolds(s, e, at) {
			t.Errorf("%s cycle %d: seq %d is asleep and nothing holds it: it is ready and will never be scanned", name, at, e.seq)
		}
	}
}

// unitHolds reports whether the unit that refused a ready entry still
// holds it past the executed cycle at: the single MOM SIMD unit for the
// SIMD queue, the 3D mover for a 3dvmov, a translation stall for any
// other memory access.
func unitHolds(s *Sim, e *robEntry, at int64) bool {
	switch {
	case e.q == qSIMD:
		return s.simdBusyUntil > at
	case e.in.Op == isa.Op3DVMov:
		return s.moverBusyUntil > at
	case e.q == qMem && s.mem.Tim.VA != nil:
		until, ok := s.mem.Tim.VA.StallUntil(e.seq)
		return ok && until > at
	}
	return false
}

// TestReadyLatchIsMonotone holds robEntry.ready to the property that
// makes it a latch: once set on an unissued entry, the entry passes the
// poll-free readiness walk at the cycle just executed and at every later
// one until it issues — so skipping the walk for a latched entry skips
// nothing that could have answered otherwise. Like checkSleepers the
// walk is written against raw ROB fields, never calls firstBlocker,
// and reads fill handles through Bound alone. Both engines: the wheel
// lands on fewer cycles, but a verdict that holds at every one of them
// held in between (the walk only compares against a clock that moves
// forward). Mutation-checked: latching where
// issueBoundPark's park refuses (a bound not in the future, but the
// entry not ready) fails here within the first cells.
func TestReadyLatchIsMonotone(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
		latched := 0
		forEachSleeperCell(t, func(name string, s *Sim) {
			for s.Running() && !t.Failed() {
				if mode == engine.Wheel {
					s.Advance()
				} else {
					s.Step()
				}
				latched += checkLatched(t, fmt.Sprintf("%s/%v", name, mode), s)
			}
		})
		if latched == 0 && !t.Failed() {
			t.Errorf("%v: no unissued entry ever held the latch across a cycle: the check saw nothing", mode)
		}
	}
}

// checkLatched walks every valid unissued entry with ready set and
// reports how many it saw.
func checkLatched(t *testing.T, name string, s *Sim) int {
	t.Helper()
	at := s.now - 1
	// landed reports whether a fill handle's data is known to be there by
	// the executed cycle: an exact bound, not in the future.
	landed := func(h interface{ Bound() (int64, bool) }) bool {
		b, exact := h.Bound()
		return exact && b <= at
	}
	n := 0
	for i := range s.rob {
		e := &s.rob[i]
		if !e.valid || e.issued || !e.ready {
			continue
		}
		n++
		for _, d := range e.deps[:e.ndeps] {
			p := rawEntry(s, d.seq)
			switch {
			case p == nil:
				for _, rec := range s.pendBySeq {
					if rec.seq == d.seq && !d.usePtr && !landed(rec.h) {
						t.Errorf("%s cycle %d: seq %d is latched ready, but retired producer %d's fill has not landed", name, at, e.seq, d.seq)
					}
				}
			case !p.issued:
				t.Errorf("%s cycle %d: seq %d is latched ready, but producer %d has not issued", name, at, e.seq, d.seq)
			case d.usePtr && p.donePtr > at, !d.usePtr && p.done > at:
				t.Errorf("%s cycle %d: seq %d is latched ready, but producer %d is still executing", name, at, e.seq, d.seq)
			case !d.usePtr && p.pend != nil && !landed(p.pend):
				t.Errorf("%s cycle %d: seq %d is latched ready, but producer %d's fill has not landed", name, at, e.seq, d.seq)
			}
		}
		if e.in.Kind.IsMem() && !e.in.IsStore {
			for _, st := range s.stores {
				if p := rawEntry(s, st.seq); st.seq < e.seq && st.lo < e.hi && e.lo < st.hi && p != nil && !p.issued {
					t.Errorf("%s cycle %d: load seq %d is latched ready, but older overlapping store %d has not issued", name, at, e.seq, st.seq)
				}
			}
		}
	}
	return n
}

// TestStepSteadyStateAllocs pins the core's share of "a steady-state
// cycle allocates nothing" on the cell where it used to allocate most:
// mpeg2encode on MOM over flat memory, whose stores made the parent
// reallocate Sim.stores about 170 times in 10,000 cycles (commit popped
// the list's front off its backing array, so every append past the
// shrunken capacity moved it). The second cell translates every access:
// MOM+3D on "sdram/bank/frfcfs/va", where each L2 TLB miss used to
// allocate a walk and each stalled instruction a transaction and a copy
// of its page list. The test-scale kernel touches three pages, which the
// default TLBs hold after their first walks, so its TLBs have one entry
// each and it keeps walking.
func TestStepSteadyStateAllocs(t *testing.T) {
	pin := func(name string) func(*Sim) {
		return func(s *Sim) {
			sp := s.mem.Tim.VA
			steps, walks := 0, uint64(0)
			run := func() {
				if sp != nil {
					walks = sp.VM().WalkStats().Walks // at the start of the round
				}
				for i := 0; i < 10000 && s.Running(); i++ {
					s.Step()
					steps++
				}
			}
			// AllocsPerRun's own warm-up round brings the active lists, the
			// ring, the vmem scratch and the page table to size; the second
			// round is measured.
			n := testing.AllocsPerRun(1, run)
			if steps != 20000 {
				t.Fatalf("%s: the cell ran out after %d steps; the pin needs 10,000 warm and 10,000 measured", name, steps)
			}
			if n > 10 {
				t.Errorf("%s: 10,000 steady-state Steps allocate %.0f times, want at most 1 per 1,000", name, n)
			}
			if sp != nil && sp.VM().WalkStats().Walks == walks {
				t.Errorf("%s: no page-table walk in the measured Steps: the pin saw no translation", name)
			}
			for s.Running() {
				s.Step()
			}
		}
	}
	driveSnapshot(t, MPEG2Enc(), kernels.MOM, MemVectorCache, "", nil, pin("mpeg2encode/mom"))

	const spec = "sdram/bank/frfcfs/va"
	backend, _, err := dram.ParseSpecFull(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig() // first-fit placement, as "va" asks
	cfg.L1Sets, cfg.L1Ways, cfg.L2Sets, cfg.L2Ways = 1, 1, 1, 1
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend,
		VA: vm.New(cfg, 1, backend.(vm.ChannelMapper)).Space(0)}
	timSnapshot(t, MPEG2Enc(), kernels.MOM3D, MemVectorCache3D, tim, nil, pin("mpeg2encode/mom3d/"+spec))
}
