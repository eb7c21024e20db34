package vmem

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
)

const lineB = cache.L2LineBytes

// observeAll feeds a sequence of line addresses and collects every
// prediction.
func observeAll(p *Prefetcher, lines []uint64) []uint64 {
	var out []uint64
	for _, l := range lines {
		out = append(out, p.Observe(l)...)
	}
	return out
}

// TestStreamTableSequential: a dense sequential miss stream confirms
// after the second stride and then keeps Degree lines in flight.
func TestStreamTableSequential(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Degree: 2}, lineB)
	preds := observeAll(p, []uint64{0x10000, 0x10000 + lineB})
	if len(preds) != 0 {
		t.Fatalf("one stride must not predict yet (got %d predictions)", len(preds))
	}
	// Third miss confirms: predict the next Degree lines.
	preds = p.Observe(0x10000 + 2*lineB)
	want := []uint64{0x10000 + 3*lineB, 0x10000 + 4*lineB}
	if len(preds) != len(want) || preds[0] != want[0] || preds[1] != want[1] {
		t.Fatalf("predictions = %#x, want %#x", preds, want)
	}
	// The next advance extends coverage by one line, not Degree lines.
	preds = p.Observe(0x10000 + 3*lineB)
	if len(preds) != 1 || preds[0] != 0x10000+5*lineB {
		t.Fatalf("advance predictions = %#x, want the single next line", preds)
	}
}

// TestStreamTableStrided: a multi-line stride within the training
// window trains and predicts along the stride, descending included.
func TestStreamTableStrided(t *testing.T) {
	for _, stride := range []int64{3 * lineB, -2 * lineB} {
		p := NewPrefetcher(PrefetchConfig{Streams: 4, Degree: 2}, lineB)
		base := int64(0x40000)
		var seq []uint64
		for i := int64(0); i < 3; i++ {
			seq = append(seq, uint64(base+i*stride))
		}
		preds := observeAll(p, seq)
		if len(preds) != 2 {
			t.Fatalf("stride %d: predictions = %d, want 2", stride, len(preds))
		}
		if preds[0] != uint64(base+3*stride) || preds[1] != uint64(base+4*stride) {
			t.Fatalf("stride %d: predictions = %#x", stride, preds)
		}
	}
}

// TestStreamTableIgnoresFarMisses: a miss beyond the training window
// allocates a new stream instead of capturing an existing one.
func TestStreamTableIgnoresFarMisses(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Degree: 2}, lineB)
	observeAll(p, []uint64{0x10000, 0x10000 + lineB}) // stream A trained
	// A miss a frame-row away must not retrain stream A...
	p.Observe(0x10000 + 15*lineB)
	if got := p.Stats().Streams; got != 2 {
		t.Fatalf("far miss must allocate its own stream (streams = %d, want 2)", got)
	}
	// ...so stream A still predicts on its next advance.
	if preds := p.Observe(0x10000 + 2*lineB); len(preds) == 0 {
		t.Fatal("far miss destroyed the trained stream")
	}
}

// TestStreamTableLRU: a table of one entry thrashes between two
// interleaved distant streams and never confirms either.
func TestStreamTableLRU(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 1, Degree: 2}, lineB)
	var preds []uint64
	for i := uint64(0); i < 4; i++ {
		preds = append(preds, p.Observe(0x10000+i*lineB)...)
		preds = append(preds, p.Observe(0x900000+i*lineB)...)
	}
	if len(preds) != 0 {
		t.Fatalf("a thrashing 1-entry table predicted %d lines", len(preds))
	}
	if p.Stats().Streams < 4 {
		t.Errorf("interleaved distant streams must keep reallocating (streams = %d)", p.Stats().Streams)
	}
}

// TestStreamTableZeroStreams: a disabled prefetcher never predicts and
// never counts trains.
func TestStreamTableZeroStreams(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 0, Degree: 4}, lineB)
	if preds := observeAll(p, []uint64{0, lineB, 2 * lineB, 3 * lineB}); len(preds) != 0 {
		t.Fatalf("disabled prefetcher predicted %d lines", len(preds))
	}
	if p.Stats().Trains != 0 {
		t.Error("disabled prefetcher counted trains")
	}
}

// pfFile builds a non-blocking MSHR file with a prefetcher attached
// over a fresh L2 and the given backend.
func pfFile(b dram.Backend, mshrs, streams, degree int) (*MSHRFile, *cache.Cache) {
	l2 := cache.New(cache.L2Config(20))
	f := NewMSHRFile(mshrTiming(b), mshrs)
	f.AttachPrefetcher(NewPrefetcher(PrefetchConfig{Streams: streams, Degree: degree}, lineB), l2)
	return f, l2
}

// demandMiss registers a one-line demand miss the way a subsystem
// would: the L2 access happens first (allocating the line), then the
// miss batch registers.
func demandMiss(f *MSHRFile, l2 *cache.Cache, addr uint64, at int64) *Pending {
	l2.Access(addr, false, false)
	return f.Register([]dram.Request{{Addr: addr, At: at}}, nil, at+20)
}

// TestPrefetchInjectsIntoPendingBatch: a confirmed stream's predicted
// lines join the pending batch as prefetch-tagged requests, fill the
// L2, and are submitted with the demand batch in one flush.
func TestPrefetchInjectsIntoPendingBatch(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 2)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	p := demandMiss(f, l2, 0x10000+2*lineB, 20) // confirms the stream
	st := f.PrefetchStats()
	if st.Issued != 2 {
		t.Fatalf("issued = %d, want 2 (degree)", st.Issued)
	}
	if !l2.Contains(0x10000+3*lineB) || !l2.Contains(0x10000+4*lineB) {
		t.Error("predicted lines must fill the L2 via the normal path")
	}
	p.Done() // force the flush
	var pfReads, reads int
	for _, b := range cb.batches {
		for _, q := range b {
			if q.Write {
				continue
			}
			reads++
			if q.Prefetch {
				pfReads++
			}
		}
	}
	if pfReads != 2 || reads != 5 {
		t.Fatalf("flushed %d reads (%d prefetch), want 5 (2 prefetch)", reads, pfReads)
	}
}

// TestPrefetchHitVsLate: a demand touch after the fill completes is a
// hit; a touch while the fill is in flight is late and the handle
// waits for the fill.
func TestPrefetchHitVsLate(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 2)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	demandMiss(f, l2, 0x10000+2*lineB, 20) // prefetch lines 3,4 issued at 40
	// Touch line 3 while its fill (done = 140) is in flight: late.
	res := l2.Access(0x10000+3*lineB, false, false)
	if !res.Hit || !res.Prefetched {
		t.Fatalf("prefetched line must hit with the mark set (res = %+v)", res)
	}
	p := f.Register(nil, []PFTouch{{Line: 0x10000 + 3*lineB, At: 60}}, 60)
	if p == nil {
		t.Fatal("late touch must return a handle")
	}
	if got := p.Done(); got != 140 {
		t.Fatalf("late touch done = %d, want the prefetch fill's 140", got)
	}
	// Touch line 4 after its fill completed: hit, nothing outstanding.
	res = l2.Access(0x10000+4*lineB, false, false)
	if !res.Prefetched {
		t.Fatal("second prefetched line lost its mark")
	}
	p2 := f.Register(nil, []PFTouch{{Line: 0x10000 + 4*lineB, At: 500}}, 500)
	if !p2.Settled(500) {
		t.Error("hit touch must already be settled")
	}
	st := f.PrefetchStats()
	if st.Hits != 1 || st.Late != 1 {
		t.Fatalf("hit/late = %d/%d, want 1/1", st.Hits, st.Late)
	}
}

// TestPrefetchDroppedWhenMSHRFull: with the file packed by demand
// misses, predictions are dropped — no flush, no stall, no fill.
func TestPrefetchDroppedWhenMSHRFull(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 3, 4, 2)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 1)
	flushesBefore := f.Stats().Flushes
	demandMiss(f, l2, 0x10000+2*lineB, 2) // file now holds 3 demands; predictions find it full
	st := f.PrefetchStats()
	if st.DroppedMSHR != 2 {
		t.Fatalf("dropped = %d, want 2 (both predictions)", st.DroppedMSHR)
	}
	if st.Issued != 0 {
		t.Fatalf("issued = %d, want 0", st.Issued)
	}
	if l2.Contains(0x10000 + 3*lineB) {
		t.Error("a dropped prefetch must not fill the L2")
	}
	if f.Stats().Flushes != flushesBefore {
		t.Error("a dropped prefetch must not force a flush")
	}
	if f.Stats().FullStalls != 0 {
		t.Error("prefetch drops must not count as demand full-stalls")
	}
}

// TestPrefetchQuota: unresolved prefetches may hold at most a quarter
// of the file, so a long stream cannot squeeze demand misses out.
func TestPrefetchQuota(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 8, 4, 8) // quota = 2
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 1)
	demandMiss(f, l2, 0x10000+2*lineB, 2) // degree 8 predicted, quota 2
	st := f.PrefetchStats()
	if st.Issued != 2 {
		t.Fatalf("issued = %d, want the quota's 2", st.Issued)
	}
	if st.DroppedMSHR != 6 {
		t.Fatalf("dropped = %d, want 6", st.DroppedMSHR)
	}
}

// TestPrefetchUselessCounted: a prefetched line evicted untouched
// counts as useless via the L2's accounting.
func TestPrefetchUselessCounted(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 2)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	demandMiss(f, l2, 0x10000+2*lineB, 20)
	if f.PrefetchStats().Issued != 2 {
		t.Fatal("setup: prefetches not issued")
	}
	// Evict one prefetched line without ever touching it: the L2 is
	// 4-way, so four conflicting fills push it out.
	victimLine := uint64(0x10000 + 3*lineB)
	setStride := uint64(l2.Config().Size / l2.Config().Ways)
	for i := uint64(1); i <= 4; i++ {
		l2.Access(victimLine+i*setStride, false, false)
	}
	if got := f.PrefetchStats().Useless; got != 1 {
		t.Fatalf("useless = %d, want 1", got)
	}
}

// TestPrefetchEvictedThenMissedCountsOnce: a prefetched line evicted
// untouched scores Useless; a later demand miss that merges onto the
// still-in-flight entry reuses its fill but must not score the same
// issue a second time as Late or Hit.
func TestPrefetchEvictedThenMissedCountsOnce(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 2)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	demandMiss(f, l2, 0x10000+2*lineB, 20) // prefetches lines 3 and 4
	// Evict prefetched line 3 untouched: conflicting fills push it out
	// of its 4-way set.
	victimLine := uint64(0x10000 + 3*lineB)
	setStride := uint64(l2.Config().Size / l2.Config().Ways)
	for i := uint64(1); i <= 4; i++ {
		l2.Access(victimLine+i*setStride, false, false)
	}
	if got := f.PrefetchStats().Useless; got != 1 {
		t.Fatalf("useless = %d, want 1 after the untouched eviction", got)
	}
	// A demand miss to the evicted line merges onto the in-flight
	// prefetch entry (its fill still serves the demand)...
	p := demandMiss(f, l2, victimLine, 60)
	if f.Stats().Merges != 1 {
		t.Fatalf("merges = %d, want 1", f.Stats().Merges)
	}
	if got := p.Done(); got != 140 {
		t.Fatalf("merged demand done = %d, want the prefetch fill's 140", got)
	}
	// ...but the issue keeps its single Useless outcome.
	st := f.PrefetchStats()
	if st.Hits != 0 || st.Late != 0 || st.Useless != 1 {
		t.Fatalf("outcome = hits %d / late %d / useless %d, want 0/0/1", st.Hits, st.Late, st.Useless)
	}
	if st.Hits+st.Late+st.Useless > st.Issued {
		t.Fatalf("outcomes exceed issues: %+v", st)
	}
}

// TestPrefetchWQFullDrops: a prediction whose fill would evict a dirty
// victim onto a write queue with no room is dropped, not stalled.
func TestPrefetchWQFullDrops(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Channels = 1
	sd := dram.NewSDRAM(cfg)
	f, l2 := pfFile(sd, 32, 4, 2)

	// Dirty the set the predictions will land in: fill all four ways of
	// the predicted lines' sets with stores so any prefetch fill must
	// evict a dirty victim.
	setStride := uint64(l2.Config().Size / l2.Config().Ways)
	for _, line := range []uint64{0x10000 + 3*lineB, 0x10000 + 4*lineB} {
		for w := uint64(0); w < 4; w++ {
			l2.Access(line+(w+1)*setStride, true, false)
		}
	}
	// Saturate the channel's write queue beyond the threshold check.
	if sd.WriteRoom(0x10000) {
		// Post writes until the advisory check reports no room.
		var batch []dram.Request
		for i := uint64(0); sd.WriteRoom(0x10000); i++ {
			batch = append(batch[:0], dram.Request{Addr: 0x900000 + i*lineB, Write: true, At: 0})
			sd.Submit(batch)
		}
	}
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	demandMiss(f, l2, 0x10000+2*lineB, 20)
	st := f.PrefetchStats()
	if st.DroppedWQ != 2 {
		t.Fatalf("wq drops = %d, want 2 (stats: %+v)", st.DroppedWQ, st)
	}
	if l2.Contains(0x10000 + 3*lineB) {
		t.Error("a wq-dropped prefetch must not fill the L2")
	}
}

// TestDrainWithPrefetchInFlight: Drain flushes prefetch entries with
// the demands; every pending request reaches the backend exactly once
// and the file's pending batch is empty afterwards.
func TestDrainWithPrefetchInFlight(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 4)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	p := demandMiss(f, l2, 0x10000+2*lineB, 20)
	if f.PrefetchStats().Issued != 4 {
		t.Fatalf("setup: issued = %d, want 4", f.PrefetchStats().Issued)
	}
	if len(cb.batches) != 0 {
		t.Fatal("nothing should have been submitted before the drain")
	}
	f.Drain()
	if len(cb.batches) != 1 {
		t.Fatalf("drain must submit the whole pending batch once (%d submits)", len(cb.batches))
	}
	if got := len(cb.batches[0]); got != 7 {
		t.Fatalf("drained batch has %d requests, want 7 (3 demand + 4 prefetch)", got)
	}
	// Handles resolve off the drained batch without further submits.
	if p.Done() <= 0 {
		t.Fatal("demand handle unresolved after drain")
	}
	f.Drain() // idempotent
	if len(cb.batches) != 1 {
		t.Error("a second drain with nothing pending must not submit")
	}
}

// TestPrefetchNeverGatesDemandHandle: an instruction that triggers
// prefetches completes on its own misses alone — the prefetch fills
// finish later and do not extend the handle.
func TestPrefetchNeverGatesDemandHandle(t *testing.T) {
	cb := &countingBackend{}
	f, l2 := pfFile(cb, 16, 4, 4)
	demandMiss(f, l2, 0x10000, 0)
	demandMiss(f, l2, 0x10000+lineB, 10)
	p := demandMiss(f, l2, 0x10000+2*lineB, 20)
	// The demand miss arrives at 20 and costs 100: done 120, even
	// though the four prefetches issued at 40 complete at 140.
	if got := p.Done(); got != 120 {
		t.Fatalf("handle done = %d, want 120 (prefetches must not gate)", got)
	}
}

// TestAttachPrefetcherRejectsBlocking: the prefetcher cannot ride the
// blocking model, because there is no file of one register to attach it
// to — NewMSHRFile refuses to build one.
func TestAttachPrefetcherRejectsBlocking(t *testing.T) {
	for _, n := range []int{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMSHRFile(_, %d) must panic: the blocking model has no file", n)
				}
			}()
			f := NewMSHRFile(mshrTiming(&countingBackend{}), n)
			f.AttachPrefetcher(NewPrefetcher(PrefetchConfig{Streams: 4}, lineB), cache.New(cache.L2Config(20)))
		}()
	}
}
