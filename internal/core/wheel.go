package core

import (
	"math"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// This file holds the issue stage's scan and, built on it, the event-
// wheel engine: the machinery that lets a Sim jump over cycles in which
// Step would provably do nothing, while staying bit-identical to
// executing every cycle — including the stall counters Step charges
// every idle cycle and the exact cycles at which the readiness walk's
// ReadyBy polls (firstBlocker with poll set) force MSHR batch flushes.
//
// Two structures carry it. First, the issue scan is event-driven under
// both engines: each queue only evaluates its active list — entries
// with a pending reason to re-check — in age order: dispatch appends the
// youngest, wake-ups land behind the sorted prefix (qSorted) and are
// inserted as the scan starts, and a waiter an issue wakes mid-scan
// joins the unscanned part, being younger than its blocker. Evaluation
// stops when width is spent. A blocked entry parks with a registered
// wake-up: a cycle bound on the sim's persistent issueWake ring (the
// blocker's completion or flush bound, or the free cycle of the unit
// that refused a ready entry), or a link on the blocking entry's waiter
// chain when only that entry's own issue can unblock it. New entries,
// woken waiters and entries past the width are walked without polls
// (issueBoundPark) and park at once if something holds them. Sleeping
// entries are never touched, which is what makes an executed step
// cheap. Second — the wheel engine alone — after a Step, NextWake
// collects a conservative wake-up from every pollable subsystem (commit
// head, store buffer, dispatch gates, active entries, the earliest
// sleeping entry) and SkipTo jumps the clock there in one move,
// bulk-charging the stall reasons Step would have charged cycle by
// cycle. Every predicate SkipTo consults is frozen across the window by
// construction: any cycle at which it could flip is itself a scheduled
// wake-up.
//
// Why parking is sound — a parked verdict can only flip at its
// registered wake-up:
//
//   - A time bound is immune to everything but time. The walk's first
//     blocker had issued with a fixed completion time, or was a fill
//     handle whose bound only grows as accesses merge in (every fill
//     completes no earlier than arrival plus the backend's minimum
//     latency, which is exactly what the bound maximized — so flushes,
//     including other tenants', cannot undercut it). The satisfied
//     dependences before the blocker stay satisfied: done times are
//     fixed and a ready handle stays ready.
//   - A chain link waits on one specific unissued entry (a producer or
//     an overlapping older store). While it has not issued, the walk
//     re-derives the same blocker, and its issue walks the chain. The
//     chain cannot dangle: waiters are younger than their blocker, and
//     in-order commit cannot retire past an unissued entry, so no
//     chained slot is recycled while the chain is live. (There is no
//     squash path: branch prediction is perfect.)
//   - A refused grant waits on its unit's free cycle, fixed when the
//     unit refuses: the MOM SIMD unit and the 3D mover each hold one
//     busy-until cycle that only an issue on the unit moves, and the
//     unit refuses every issue until then; a translation stall ends
//     at its transaction's ready cycle, which never moves
//     (internal/vm). Every entry a unit refused wakes at that one
//     cycle and the scan inserts the wake-ups by age, so the oldest
//     gets the unit, as it would had each been re-checked every cycle.
//
// Why the ready latch is sound — a ready verdict never flips back, so
// robEntry.ready lets every later turn skip the walk (a ready entry can
// wait many cycles for its unit or for issue width): an issued
// producer's done time is fixed; a handle that answered ReadyBy true is
// resolved and stays ready (issueBoundPark's ready means an exact bound
// not in the future, which ReadyBy confirms without flushing) — so its
// producer retires without entering the scoreboard; an issued older
// store stays issued and no older store can dispatch later.
// The polls the latch skips touch resolved handles only, so every
// flush still lands on the cycle it would have.
//
// The polls a sleeping entry does not make are unobservable: every
// handle before the first blocker is resolved (its polls mutate
// nothing), and the blocker's own poll first flushes at its lower
// bound — exactly the registered wake-up, where the scan performs the
// poll. A scan that evaluates every unissued entry every cycle until
// width is spent flushes at the same cycles, so the MSHR occupancy/
// flush statistics match the frozen output of one bit for bit
// (internal/experiments/testdata/fullsize_digests.txt, core's
// golden_stats.txt), and TestNaiveScanMatches reruns such a scan.

// SimulateStream runs a recorded stream, which it only reads, to
// completion under either engine, with bit-identical statistics. It is
// the REFERENCE run: the commands and the experiment runner run every
// machine, a solo one included, as a tenant.Group, and internal/tenant's
// equivalence tests hold a group of one to what it returns.
func SimulateStream(cfg Config, mem *MemSystem, stream *trace.Stream, mode engine.Mode) *Stats {
	s := NewStreamSim(cfg, mem, stream, 0)
	if mode == engine.Wheel {
		for s.Running() {
			s.Advance()
		}
	} else {
		for s.Running() {
			s.Step()
		}
	}
	// A copy: Finish points into the Sim, and a caller that keeps the
	// result must not keep the window, its fill handles' slabs and the
	// whole memory system with it.
	st := *s.Finish()
	mem.Drain()
	return &st
}

// SetEngine does nothing: the engine of a hand-stepped Sim is whichever
// of Step and Advance its caller drives the clock with, cycle by cycle.
// Only bench/ still announces one.
func (s *Sim) SetEngine(engine.Mode) {}

// maxWake marks an entry blocked on another entry's issue rather than
// on a cycle bound.
const maxWake = math.MaxInt64

// activate puts e on its queue's active list: the queue's next scan
// evaluates it. The sorted prefix grows while the list stays in order.
func (s *Sim) activate(e *robEntry) {
	e.active = true
	l := s.qActive[e.q]
	if n := len(l); s.qSorted[e.q] == n && (n == 0 || l[n-1] < e.seq) {
		s.qSorted[e.q]++
	}
	s.qActive[e.q] = append(l, e.seq)
}

// drainWakes moves every entry whose timed wake-up is due back onto
// its queue's active list. Spurious wakes (the entry re-parked with a
// later bound, or already issued) are filtered here.
func (s *Sim) drainWakes() {
	for {
		seq, ok := s.issueWake.PopUpTo(s.now)
		if !ok {
			return
		}
		if e := s.entry(seq); e != nil && !e.issued && !e.active {
			s.activate(e)
		}
	}
}

// park puts e to sleep until the given cycle bound — or, for maxWake,
// until the entry at wseq issues — and reports whether it did. A
// bound not in the future keeps the entry active (the next real Step
// must re-evaluate it, performing the poll that is due).
func (s *Sim) park(e *robEntry, wake int64, wseq uint64) bool {
	if wake == maxWake {
		if !e.enlisted {
			p := s.entry(wseq)
			if p == nil || p.issued {
				return false // blocker vanished under us: recheck next cycle
			}
			e.waiterNext = p.waiterHead
			p.waiterHead = e.seq + 1
			e.enlisted = true
		}
		// Already enlisted: while the blocker is unissued the walk
		// re-derives the same blocker, so the existing link stands.
		e.active = false
		return true
	}
	if wake <= s.now {
		return false
	}
	s.issueWake.Schedule(wake, e.seq)
	s.work.RingEvents++
	e.active = false
	return true
}

// wakeWaiters wakes every entry chained on p, called when p issues from
// queue q's scan. Each waiter is walked without polls, as dispatch walks
// a new entry, and parks again at once if something still holds it
// (typically p's completion). The rest activate: on q or a later queue
// their scan runs (or is running) this very cycle, exactly when an
// in-order pass over the whole queue would reach them; on an
// already-scanned queue they are evaluated next cycle.
func (s *Sim) wakeWaiters(p *robEntry, q queue) {
	h := p.waiterHead
	p.waiterHead = 0
	for h != 0 {
		e := s.entry(h - 1)
		if e == nil {
			return // unreachable: waiters cannot commit past their blocker
		}
		h = e.waiterNext
		e.waiterNext = 0
		e.enlisted = false
		if e.issued || e.active {
			continue
		}
		if _, asleep := s.issueBoundPark(e); !asleep {
			s.activate(e)
			if e.q < q {
				s.issueNoSkip = true // evaluated next cycle; its scan already ran
			}
		}
	}
}

// issueQueue scans one queue's active list oldest-first, issuing up to
// width entries for which fire grants a unit, as an in-order pass over
// the whole queue would allocate width. It first inserts the wake-ups
// behind the sorted prefix; survivors compact in place behind the
// cursor.
func (s *Sim) issueQueue(q queue, width int, fire func(e *robEntry) (int64, int64)) {
	act := s.qActive[q]
	if len(act) == 0 {
		return
	}
	if k := s.qSorted[q]; k < len(act) {
		s.work.Sorted += uint64(len(act) - k)
		insertSorted(act, k)
	}
	issued, kept, i := 0, 0, 0
	for ; i < len(act) && issued < width; i++ {
		seq := act[i]
		keep := s.evaluate(q, seq, &issued, fire)
		if woken := s.qActive[q]; len(woken) > len(act) {
			// The issue woke waiters in this queue, appended behind the
			// list. A waiter is younger than its blocker, hence than
			// every entry scanned so far: it joins the unscanned part.
			s.work.Sorted += uint64(len(woken) - len(act))
			insertSorted(woken[i+1:], len(act)-i-1)
			act = woken
		}
		if keep {
			act[kept] = seq
			kept++
		}
	}
	// Width is spent: nothing more is evaluated or polled, so the
	// poll-free walk is exact for the rest. A ready entry is re-checked
	// next cycle without one; of the others, those a registered wake-up
	// covers park, so that a dead cycle can still be skipped.
	for ; i < len(act); i++ {
		if e := s.entry(act[i]); !e.ready {
			s.work.ScanTurns++
			if _, asleep := s.issueBoundPark(e); asleep {
				continue
			}
		}
		act[kept] = act[i]
		kept++
		s.issueNoSkip = true
	}
	s.qActive[q] = act[:kept]
	s.qSorted[q] = kept
}

// insertSorted sorts l, whose first k elements are in order, by
// inserting each later element into the ordered part.
func insertSorted(l []uint64, k int) {
	for ; k < len(l); k++ {
		x, i := l[k], k
		for ; i > 0 && l[i-1] > x; i-- {
			l[i] = l[i-1]
		}
		l[i] = x
	}
}

// evaluate gives the entry seq its turn in queue q's scan — issuing it
// if it is ready and fire grants the unit, parking it if a registered
// wake-up covers what blocks it — and reports whether it stays on the
// active list for the next cycle's scan.
func (s *Sim) evaluate(q queue, seq uint64, issued *int, fire func(e *robEntry) (int64, int64)) bool {
	s.work.ScanTurns++
	e := s.entry(seq)
	if e == nil || e.issued {
		return false
	}
	if b, blocked := s.readyBound(e); blocked {
		if s.park(e, b.wake, b.seq) {
			s.work.StillBlocked++
			return false
		}
		s.work.Repolls++
		s.issueNoSkip = true // bound not in the future: re-poll next cycle
		return true
	}
	done, retry := fire(e)
	if retry != 0 {
		// Ready, but the unit refused the grant until retry: a future
		// cycle nothing can move earlier, so the entry sleeps until then.
		s.park(e, retry, 0)
		return false
	}
	e.issued = true
	e.done = done
	if e.donePtr == 0 {
		e.donePtr = done
	}
	if s.tr != nil {
		s.traceIssue(e)
	}
	*issued++
	s.wakeWaiters(e, q)
	return false
}

// blocker names what holds an unissued entry: the unissued entry seq,
// whose issue alone can unblock it (wake is maxWake); an executing
// producer p, until its completion wake; or a fill handle h, until its
// bound wake.
type blocker struct {
	wake int64
	seq  uint64
	p    *robEntry
	h    *vmem.Pending
}

// firstBlocker is the one readiness walk: e's operands in order, then,
// for a load, the older overlapping stores (once a store has issued, the
// LSQ forwarding/merge network supplies its data to younger loads). It
// stops at the first condition that holds e and reports it with true;
// false means nothing does. With poll set a fill is asked through ReadyBy,
// whose lazy poll is what flushes MSHR batches; without it through the
// poll-free Bound alone, which cannot flush or resolve anything.
func (s *Sim) firstBlocker(e *robEntry, poll bool) (blocker, bool) {
	for _, d := range e.deps[:e.ndeps] {
		p := s.entry(d.seq)
		if p == nil {
			// Committed — but a producer that retired early may still be
			// filling the register from memory; the scoreboard keeps the
			// true dependency alive.
			if h := s.scoreboard(d.seq); h != nil && !d.usePtr {
				if b, held := s.fillHolds(h, poll); held {
					return blocker{wake: b, h: h}, true
				}
			}
			continue // value in the register file
		}
		if !p.issued {
			return blocker{wake: maxWake, seq: d.seq}, true
		}
		t := p.done
		if d.usePtr {
			t = p.donePtr
		}
		if t > s.now {
			return blocker{wake: t, p: p}, true
		}
		if !d.usePtr && p.pend != nil {
			if b, held := s.fillHolds(p.pend, poll); held {
				return blocker{wake: b, h: p.pend}, true
			}
		}
	}
	if e.in.Kind.IsMem() && !e.in.IsStore {
		for _, st := range s.stores {
			if st.seq >= e.seq {
				break
			}
			if st.lo < e.hi && e.lo < st.hi {
				if p := s.entry(st.seq); p != nil && !p.issued {
					return blocker{wake: maxWake, seq: st.seq}, true
				}
			}
		}
	}
	return blocker{}, false
}

// fillHolds reports fill h's bound and whether h may still withhold its
// data at now: by ReadyBy's answer when polling (false for free while the
// bound rules completion out), else until the bound is exact and passed.
func (s *Sim) fillHolds(h *vmem.Pending, poll bool) (int64, bool) {
	if poll && h.ReadyBy(s.now) {
		return 0, false
	}
	b, exact := h.Bound()
	return b, poll || !exact || b > s.now
}

// readyBound is the readiness walk with polls, behind the ready latch:
// what holds e, whose wake is the first cycle the verdict could flip on
// its own (maxWake: only the issue of entry seq can flip it), if any.
func (s *Sim) readyBound(e *robEntry) (blocker, bool) {
	if !e.ready {
		if b, blocked := s.firstBlocker(e, true); blocked {
			return b, true
		}
		e.ready = true
	}
	return blocker{}, false
}

// issueBoundPark is readyBound without the polls — an entry that gets
// no turn this cycle must not flush — parking the entry on its first
// blocker. An unresolved fill's poll-free bound is exactly the cycle a
// per-cycle poll would first flush, so the wake-up lands the scan (and
// its flush) on that cycle. It returns (ready, asleep): ready means
// nothing blocks at now; asleep means the entry parked with a
// registered wake-up. Neither means the bound was not in the future —
// the caller keeps the entry active.
func (s *Sim) issueBoundPark(e *robEntry) (bool, bool) {
	if e.ready {
		return true, false
	}
	if b, blocked := s.firstBlocker(e, false); blocked {
		return false, s.park(e, b.wake, b.seq)
	}
	e.ready = true
	return true, false
}

// Advance is the wheel engine's Step: one real pipeline step, then a
// jump over the cycles no subsystem can act in. The wake-up scan runs
// after every step — it costs a fraction of a Step, and about a
// quarter of productive steps are followed by a dead cycle, which the
// scan converts into a jump instead of an executed no-op step.
func (s *Sim) Advance() {
	s.Step()
	if !s.Running() {
		return
	}
	if t := s.NextWake(); t > s.now {
		s.SkipTo(t)
	}
}

// NextWake returns the earliest cycle >= now at which a Step might do
// something a skipped cycle would not (commit, issue, dispatch, an
// MSHR flush triggered by a poll, the no-progress panic). Returning
// now means the next cycle cannot be skipped.
func (s *Sim) NextWake() int64 {
	if s.issueNoSkip {
		// An active entry needs a per-cycle re-check: an issue-side
		// verdict of "next cycle" already rules out a skip, so the
		// wake-up scan isn't even worth its call (this wrapper inlines
		// into Advance and the tenant group's round).
		return s.now
	}
	return s.nextWake()
}

func (s *Sim) nextWake() int64 {
	now := s.now

	// NextWake only ever needs the earliest candidate, so wake-ups
	// accumulate into a plain minimum rather than a heap. Seeded with
	// the watchdog fence: the no-progress panic in Step must fire at
	// the identical cycle it would under per-cycle stepping.
	best := s.lastCommitCycle + noProgressLimit
	sched := func(t int64) {
		if t < best {
			best = t
		}
	}

	// Commit side. A completed head is progress unless the store
	// buffer blocks it; then the ways out are fills landing — the
	// head's own and any posted store's (freeing a slot) — plus the
	// per-cycle ReadyBy poll of the oldest posted store, which flushes
	// the MSHR file at its lower bound. All of those bounds stop the
	// skip.
	if s.count > 0 {
		e := &s.rob[s.head]
		if e.issued {
			switch {
			case e.done > now:
				sched(e.done)
			case s.sbBlocked(e):
				b, _ := e.pend.Bound()
				sched(b)
				for _, h := range s.postedStores {
					b, _ := h.Bound()
					sched(b)
				}
			default:
				return now // head retires next cycle
			}
		}
		// An unissued head is covered by the issue scan below.
	}

	// Dispatch side. Resource-stalled, only a commit frees the window
	// / LSQ / rename registers, and the commit candidates above (or the
	// issue scan, for an unissued head) already cover that.
	if s.cur.More() && s.dispatchStall(s.cur.Peek()) == nil {
		return now // dispatch inserts next cycle
	}

	// Issue side: the verdict was computed by this step's own scans
	// (and by insert and wakeWaiters, which park new or woken entries
	// or flag them for a next-cycle re-check — issueNoSkip, handled at
	// the top), so no walk is needed here: every entry still on an
	// active list has already flagged itself, and every other one
	// sleeps — on a chain, or until its timed wake-up: the earliest.
	if t, ok := s.issueWake.NextCycle(); ok {
		sched(t)
	}

	if best <= now {
		return now
	}
	return best
}

// SkipTo advances the clock to cycle t without stepping, charging the
// skipped Steps' stalls from the verdicts Step's commit and dispatch
// read (sbBlocked, dispatchStall) and the CPI stack's. NextWake must
// have shown every cycle in (s.now, t) a no-op; the verdicts are then
// frozen across the window, because any cycle at which one could flip
// is itself a NextWake candidate.
func (s *Sim) SkipTo(t int64) {
	n := t - s.now
	if n <= 0 {
		return
	}
	// Bulk-charge the window's CPI bucket under the same frozen-
	// predicate argument: the classifier's verdict at s.now holds for
	// every skipped cycle, and the per-handle budget cursors drain
	// identically whether consumed 1×n or n×1. A commit is never
	// skipped, so committed is false by construction.
	s.chargeCPI(uint64(n), false)
	if s.count > 0 {
		if e := &s.rob[s.head]; e.issued && e.done <= s.now && s.sbBlocked(e) {
			s.stats.StallSB += uint64(n)
		}
	}
	if s.cur.More() {
		if c := s.dispatchStall(s.cur.Peek()); c != nil {
			*c += uint64(n)
		}
	}
	s.now = t
}
