package core

import (
	"repro/internal/isa"
	"repro/internal/stats"
)

// This file extends the event tracer into the core pipeline: each
// memory instruction renders as a begin/end span from issue to commit
// (tid = its ROB slot, pid = its tenant), and flow events chain the
// instruction to the work it caused elsewhere — a 's' per fresh MSHR
// entry it allocated (the MSHR and DRAM lanes continue the chain) and
// a 'f' closing the translation-walk chain the vm layer opened when
// the instruction stalled on a TLB miss. Everything is gated on s.tr,
// so the traced hot paths cost one nil check when tracing is off.

// xlatFlowBit disambiguates translation-flow IDs (the instruction's
// sequence number) from MSHR entry IDs in the shared Chrome id space.
const xlatFlowBit = uint64(1) << 63

// SetTracer attaches a cycle-stamped event tracer to the core pipeline
// itself (issue/commit spans and causal flow events), tagging every
// event with the requestor index. The memory-system subsystems attach
// separately via MemSystem.AttachTracer. Nil detaches.
func (s *Sim) SetTracer(tr *stats.Tracer, tenant int) {
	s.tr, s.trTenant = tr, tenant
}

// traceSpans reports whether in gets an issue→commit span: the memory
// instructions are the pipeline's interesting population (and bound
// the ring's growth — ALU traffic would bury them).
func traceSpans(in *isa.Inst) bool { return in.Kind.IsMem() }

// traceIssue emits the span begin and the outgoing flow events for an
// instruction that just issued at s.now. Callers gate on s.tr != nil.
func (s *Sim) traceIssue(e *robEntry) {
	in := e.in
	if !traceSpans(in) {
		return
	}
	lane := int(e.seq % uint64(s.cfg.Window))
	s.tr.Emit(stats.Event{Cycle: s.now, Cat: "core", Name: in.Op.Name(), Ph: 'B',
		Addr: e.addr, ID: e.seq, Lane: lane, Tenant: s.trTenant})
	if e.hadWalk {
		// Close the walk chain the vm layer opened when this seq first
		// stalled on translation: the arrow lands on the issue cycle.
		s.tr.Emit(stats.Event{Cycle: s.now, Cat: "xlat", Name: "walk", Ph: 'f',
			ID: e.seq | xlatFlowBit, Lane: lane, Tenant: s.trTenant})
	}
	if e.pend != nil {
		// One chain per fresh MSHR entry this instruction allocated;
		// the MSHR file continues each chain at its alloc cycle and
		// closes it at the fill.
		first, n := e.pend.FreshIDs()
		for id := first; id < first+n; id++ {
			s.tr.Emit(stats.Event{Cycle: s.now, Cat: "dep", Name: "mem", Ph: 's',
				ID: id, Lane: lane, Tenant: s.trTenant})
		}
	}
}

// traceCommit closes the instruction's span at its commit cycle.
// Callers gate on s.tr != nil.
func (s *Sim) traceCommit(e *robEntry) {
	if !traceSpans(e.in) {
		return
	}
	s.tr.Emit(stats.Event{Cycle: s.now, Cat: "core", Name: e.in.Op.Name(), Ph: 'E',
		ID: e.seq, Lane: int(e.seq % uint64(s.cfg.Window)), Tenant: s.trTenant})
}
