package main

import (
	"time"
	"unsafe"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// The three timing wrappers of the traced pass. Each sits at a layer
// boundary that is an interface (trace.Sink, vmem.System,
// dram.Backend), which is the only kind of boundary a benchmark can
// interpose on without editing the simulator: cache, MSHRFile,
// vm.Space and MemSystem.ScalarAccess are concrete types, so their
// host time stays inside whichever wrapped layer calls them.

// callTimer folds every call through one wrapper into one span.
type callTimer struct {
	calls, ns   int64
	first, last time.Time
}

func (c *callTimer) begin() time.Time {
	t := time.Now()
	if c.calls == 0 {
		c.first = t
	}
	return t
}

func (c *callTimer) end(start time.Time) {
	c.last = time.Now()
	c.calls++
	c.ns += c.last.Sub(start).Nanoseconds()
}

// timedSink times every Emit into the Trace it wraps, and adds up what
// the append allocated by watching the slice's capacity move.
type timedSink struct {
	tr         *trace.Trace
	emit       callTimer
	allocBytes int64
	capSeen    int
}

func (s *timedSink) Emit(in isa.Inst) {
	start := s.emit.begin()
	s.tr.Emit(in)
	s.emit.end(start)
	if c := cap(s.tr.Insts); c != s.capSeen {
		s.allocBytes += int64(c) * int64(unsafe.Sizeof(isa.Inst{}))
		s.capSeen = c
	}
}

// memTimers is the state the vmem and dram wrappers of one run share:
// inIssue tells Submit which layer entered it.
type memTimers struct {
	issue                         callTimer
	submitInIssue, submitFromCore callTimer
	inIssue                       bool
	reqs, violations              int64
}

// timedSystem times vmem.System.Issue. Every tenant's subsystem of a
// shared memory system reports into the same memTimers.
type timedSystem struct {
	vmem.System
	mt *memTimers
}

func (s *timedSystem) Issue(in *isa.Inst, t0 int64) (int64, *vmem.Pending) {
	start := s.mt.issue.begin()
	s.mt.inIssue = true
	done, pend := s.System.Issue(in, t0)
	s.mt.inIssue = false
	s.mt.issue.end(start)
	return done, pend
}

// timedBackend times dram.Backend.Submit and holds every batch to the
// Submit contract. It embeds the SDRAM so that the optional interfaces
// the simulator asserts for (dram.Traceable, dram.TenantAware,
// vm.ChannelMapper) still resolve.
type timedBackend struct {
	*dram.SDRAM
	mt *memTimers
}

func (b *timedBackend) Submit(batch []dram.Request) []dram.Completion {
	t := &b.mt.submitFromCore
	if b.mt.inIssue {
		t = &b.mt.submitInIssue
	}
	start := t.begin()
	out := b.SDRAM.Submit(batch)
	t.end(start)
	b.mt.reqs += int64(len(batch))
	b.mt.violations += contractViolations(batch, out)
	return out
}

// contractViolations counts breaches of the Backend.Submit contract:
// one completion per request, in batch order (same ID, same direction),
// done strictly after the request arrived.
func contractViolations(batch []dram.Request, out []dram.Completion) int64 {
	if len(out) != len(batch) {
		return 1
	}
	var n int64
	for i, r := range batch {
		c := out[i]
		if c.ID != r.ID || c.Write != r.Write || c.Done <= r.At {
			n++
		}
	}
	return n
}
