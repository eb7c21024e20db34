package vmem

import (
	"testing"

	"repro/internal/dram"
)

// countingBackend records Submit batches with a flat 100-cycle read
// latency and carries request IDs through, like a real backend must.
type countingBackend struct {
	batches [][]dram.Request
	st      dram.Stats
	comps   []dram.Completion
}

func (c *countingBackend) Name() string          { return "counting" }
func (c *countingBackend) Stats() *dram.Stats    { return &c.st }
func (c *countingBackend) MinReadLatency() int64 { return 100 }
func (c *countingBackend) WriteRoom(uint64) bool { return true }
func (c *countingBackend) Submit(batch []dram.Request) []dram.Completion {
	c.batches = append(c.batches, append([]dram.Request(nil), batch...))
	c.comps = c.comps[:0]
	for _, q := range batch {
		c.comps = append(c.comps, dram.Completion{
			Addr: q.Addr, Write: q.Write, At: q.At, Done: q.At + 100, ID: q.ID})
	}
	return c.comps
}

func (c *countingBackend) reads() []dram.Request {
	var out []dram.Request
	for _, b := range c.batches {
		for _, q := range b {
			if !q.Write {
				out = append(out, q)
			}
		}
	}
	return out
}

func mshrTiming(b dram.Backend) Timing {
	return Timing{L2Latency: 20, Backend: b}
}

// TestSecondaryMissMerges: a second instruction missing a line already
// in flight must wait on the existing MSHR, never re-submit the line.
func TestSecondaryMissMerges(t *testing.T) {
	cb := &countingBackend{}
	tim := mshrTiming(cb)
	f := NewMSHRFile(tim, 8)
	p1 := f.Register([]dram.Request{{Addr: 0x1000, At: 0}}, nil, 20)
	p2 := f.Register([]dram.Request{{Addr: 0x1040, At: 5}}, nil, 25) // same 128B line
	if got := f.Stats().Merges; got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	d1, d2 := p1.Done(), p2.Done()
	if reads := cb.reads(); len(reads) != 1 {
		t.Fatalf("line submitted %d times, want once", len(reads))
	}
	if d1 != 100 {
		t.Fatalf("primary done = %d, want 100", d1)
	}
	if d2 != 100 {
		t.Fatalf("secondary done = %d, want the shared fill's 100", d2)
	}

	// Once the fill has landed, a fresh miss to the line (the cache
	// evicted and re-missed it) allocates anew and re-submits.
	p3 := f.Register([]dram.Request{{Addr: 0x1000, At: 500}}, nil, 520)
	if p3.Done() != 600 {
		t.Fatalf("post-fill re-miss done = %d, want 600", p3.Done())
	}
	if got := f.Stats().Merges; got != 1 {
		t.Fatalf("post-fill re-miss must not merge (merges = %d)", got)
	}
	if reads := cb.reads(); len(reads) != 2 {
		t.Fatalf("re-missed line must be re-submitted (reads = %d)", len(reads))
	}
}

// TestLazySubmissionAccumulates: nothing reaches the backend until a
// consumer's lower bound passes (or the file fills), and then the whole
// accumulated batch goes down in one Submit spanning both instructions.
func TestLazySubmissionAccumulates(t *testing.T) {
	cb := &countingBackend{}
	f := NewMSHRFile(mshrTiming(cb), 8)
	p1 := f.Register([]dram.Request{{Addr: 0x1000, At: 0}, {Addr: 0x2000, At: 1}}, nil, 21)
	p2 := f.Register([]dram.Request{{Addr: 0x3000, At: 3}, {Addr: 0x4000, At: 4}}, nil, 24)
	if len(cb.batches) != 0 {
		t.Fatalf("registration alone must not Submit (%d calls)", len(cb.batches))
	}
	// Below the minimum-latency bound the answer is free.
	if p1.ReadyBy(50) {
		t.Fatal("ready before the minimum read latency")
	}
	if len(cb.batches) != 0 {
		t.Fatalf("a ruled-out query must not force a flush (%d calls)", len(cb.batches))
	}
	// Past the bound the file must resolve — with one batch of all four
	// requests.
	if !p1.ReadyBy(101) {
		t.Fatal("not ready at its exact completion")
	}
	if len(cb.batches) != 1 || len(cb.batches[0]) != 4 {
		t.Fatalf("expected one 4-request Submit, got %d batches", len(cb.batches))
	}
	if f.Stats().SpanSum != 2 {
		t.Fatalf("flush span = %d instructions, want 2", f.Stats().SpanSum)
	}
	if !p2.ReadyBy(104) || p2.Done() != 104 {
		t.Fatalf("second handle done = %d, want 104", p2.Done())
	}
}

// TestMSHRFullStallsAllocation: a full file flushes, then delays the
// new miss until the earliest fill frees its entry.
func TestMSHRFullStallsAllocation(t *testing.T) {
	cb := &countingBackend{}
	f := NewMSHRFile(mshrTiming(cb), 2)
	p := f.Register([]dram.Request{
		{Addr: 0x1000, At: 0},
		{Addr: 0x2000, At: 1},
		{Addr: 0x3000, At: 2}, // no MSHR left: flush, wait for the first fill
	}, nil, 22)
	st := f.Stats()
	if st.FullStalls != 1 {
		t.Fatalf("full stalls = %d, want 1", st.FullStalls)
	}
	if st.StallCycles != 98 { // pushed from cycle 2 to the first fill at 100
		t.Fatalf("stall cycles = %d, want 98", st.StallCycles)
	}
	// The stalled request arrives at 100 and completes at 200.
	if got := p.Done(); got != 200 {
		t.Fatalf("done = %d, want 200 (stalled third line)", got)
	}
}

// TestWritebackRidesPendingBatch: posted write-backs join the pending
// batch without occupying an MSHR and never gate the handle.
func TestWritebackRidesPendingBatch(t *testing.T) {
	cb := &countingBackend{}
	f := NewMSHRFile(mshrTiming(cb), 4)
	p := f.Register([]dram.Request{
		{Addr: 0x1000, At: 0},
		{Addr: 0x8000, Write: true, At: 0},
	}, nil, 20)
	if got := p.Done(); got != 100 {
		t.Fatalf("done = %d, want 100 (write must not gate)", got)
	}
	if st := f.Stats(); st.Writebacks != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v, want 1 writeback, 1 alloc", st)
	}
	var writes int
	for _, b := range cb.batches {
		for _, q := range b {
			if q.Write {
				writes++
			}
		}
	}
	if writes != 1 {
		t.Fatalf("writes submitted = %d, want 1", writes)
	}
}
