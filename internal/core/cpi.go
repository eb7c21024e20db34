package core

import "repro/internal/vmem"

// This file is the CPI stack: whole-pipeline cycle attribution. Every
// cycle a Sim executes (or skips) is charged to exactly one bucket, so
// the buckets sum to the run's cycle count — the conservation
// invariant the golden-matrix tests assert bit-identically on both
// engines.
//
// Attribution is head-of-window blame, the classic CPI-stack
// methodology: a cycle with a commit is productive (Busy); otherwise
// the oldest instruction is the pipeline's bottleneck and the cycle is
// charged to whatever blocks it. The classifier asks the very questions
// issue and commit do — firstBlocker without polls, sbBlocked — and so
// performs no lazy ReadyBy poll (only the poll-free Settled/Bound/
// StallUntil peeks): classification never perturbs MSHR batching or
// TLB state, and the step and wheel engines observe identical charges:
// executed cycles classify on bit-identical state, and a SkipTo window
// bulk-charges its frozen verdict — every predicate the classifier
// consults is piecewise-constant across a skip window, because any
// cycle at which one could flip is itself a registered wake-up.
//
// Memory-blocked cycles split three ways through the blocking
// instruction's Pending handle: cycles the handle absorbed waiting for
// a free MSHR (the full-stall budget Register accumulated), cycles
// the channel scheduler spent yielding the requests to other tenants
// under QoS (the per-entry yield budget the controller stamped on the
// completion), and the remainder — the DRAM wait proper. The budgets
// are consumed through per-handle cursors, so n per-cycle charges and
// one n-cycle bulk charge drain them identically.

// CPIStack decomposes the core's cycles by stall reason. All fields
// are uint64 counters; stats.AddStruct registers them as core.cpi.*.
type CPIStack struct {
	// Busy: a commit retired at least one instruction this cycle (plus
	// the issue-edge sliver where the head completed this very cycle
	// and retires next).
	Busy uint64
	// Issue: the head is ready but lost issue bandwidth or found its
	// functional unit (SIMD datapath, 3D mover, L1 port) busy.
	Issue uint64
	// Exec: the head has issued and is completing in a unit or cache
	// occupancy, with no recorded main-memory miss.
	Exec uint64
	// Dep: the head waits on a scoreboard register dependence (or an
	// older overlapping store) that is not itself memory-blocked.
	Dep uint64
	// MSHRFull: the blocking access absorbed a full MSHR file before it
	// could even allocate its miss.
	MSHRFull uint64
	// StoreBuf: commit stalled on a full store buffer.
	StoreBuf uint64
	// TLBWalk: the head is stalled in issue on address translation (L2
	// TLB latency or a page-table walk).
	TLBWalk uint64
	// DRAMWait: the head (or the producer it depends on) waits on a
	// main-memory line fill.
	DRAMWait uint64
	// QosYield: the fill's wait was extended by QoS credit yields to
	// other tenants in the channel scheduler.
	QosYield uint64
	// Frontend: the window is empty — a taken-branch fetch break or
	// the trace's tail.
	Frontend uint64
	// Drain: end-of-run cycles between the last commit and the last
	// outstanding fill landing.
	Drain uint64
}

// CPIBucket is one bucket of a CPI stack under its registry name.
type CPIBucket struct {
	Name string // snake_case suffix it registers under: core.cpi.<Name>
	N    uint64
}

// Buckets returns the stack's buckets in presentation order (pipeline
// first, memory system last), which is also their field order.
func (c *CPIStack) Buckets() []CPIBucket {
	return []CPIBucket{
		{"busy", c.Busy}, {"issue", c.Issue}, {"exec", c.Exec}, {"dep", c.Dep},
		{"mshr_full", c.MSHRFull}, {"store_buf", c.StoreBuf}, {"tlb_walk", c.TLBWalk},
		{"dram_wait", c.DRAMWait}, {"qos_yield", c.QosYield},
		{"frontend", c.Frontend}, {"drain", c.Drain},
	}
}

// Sum is the total of every bucket; conservation demands it equal the
// run's cycle count exactly.
func (c *CPIStack) Sum() uint64 {
	return c.Busy + c.Issue + c.Exec + c.Dep + c.MSHRFull + c.StoreBuf +
		c.TLBWalk + c.DRAMWait + c.QosYield + c.Frontend + c.Drain
}

// chargeCPI attributes n cycles starting at s.now. Step calls it once
// per executed cycle (n=1, committed from this cycle's commit);
// SkipTo bulk-charges its window (committed is always false there — a
// retiring head is a wake-up, never skipped).
func (s *Sim) chargeCPI(n uint64, committed bool) {
	c := &s.stats.CPI
	if committed {
		c.Busy += n
		return
	}
	if s.count == 0 {
		c.Frontend += n
		return
	}
	e := &s.rob[s.head]
	if e.issued {
		if e.done > s.now {
			if e.missed {
				s.chargeMem(e.pend, n)
			} else {
				c.Exec += n
			}
			return
		}
		// Completed but not committed. The store-buffer stall is the one
		// steady state here (commit evaluated it this cycle); the only
		// other way in is the issue edge — the head issued after commit
		// ran, with a same-cycle completion — which retires next cycle.
		if s.sbBlocked(e) {
			c.StoreBuf += n
			return
		}
		c.Busy += n
		return
	}
	s.classifyUnissued(e, n)
}

// classifyUnissued blames an unissued head on its first blocker, found
// by the poll-free readiness walk, so classification cannot flush the
// MSHR file or touch TLB state. It leaves the ready latch alone.
func (s *Sim) classifyUnissued(e *robEntry, n uint64) {
	c := &s.stats.CPI
	b, blocked := s.firstBlocker(e, false)
	switch {
	case b.h != nil:
		s.chargeMem(b.h, n)
	case b.p != nil && b.p.missed:
		s.chargeMem(b.p.pend, n)
	case blocked:
		c.Dep += n
	default:
		// Operands ready: the head is either stalled in issue on address
		// translation (an in-flight transaction with a future ready cycle)
		// or contending for issue bandwidth / a busy unit.
		if sp := s.mem.Tim.VA; sp != nil {
			if until, ok := sp.StallUntil(e.seq); ok && until > s.now {
				c.TLBWalk += n
				return
			}
		}
		c.Issue += n
	}
}

// missSig is a cheap monotonic fingerprint of the memory system's miss
// traffic (vector subsystem misses plus L2 misses). Diffing it around
// an access's issue call detects "this access filed main-memory
// traffic" without widening any interface — the counters increment
// synchronously at access time, never at flush time, so the flag is
// engine-identical.
func (s *Sim) missSig() uint64 {
	m := s.mem
	if m.L2 == nil {
		return 0
	}
	return m.VM.Stats().Misses + m.L2.Stats.Misses
}

// chargeMem splits n memory-blocked cycles across the handle's stall
// budgets: QoS yield first (the scheduler stamped those cycles
// precisely, and the loose full-stall budget would swallow them
// otherwise), MSHR full-stall next, DRAM wait for the rest. A nil
// handle is the blocking model, where the whole wait is main memory.
func (s *Sim) chargeMem(p *vmem.Pending, n uint64) {
	c := &s.stats.CPI
	if p == nil {
		c.DRAMWait += n
		return
	}
	q := p.TakeQoSYield(n)
	c.QosYield += q
	f := p.TakeFullStall(n - q)
	c.MSHRFull += f
	c.DRAMWait += n - q - f
}
