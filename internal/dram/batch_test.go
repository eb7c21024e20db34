package dram

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSubmitSingleMatchesOneAtATime: under FCFS, a multi-request batch
// with ordered arrivals must complete exactly like the same requests
// submitted one at a time — the batch API only widens what the
// scheduler can see, it never changes arrival-order service.
func TestSubmitSingleMatchesOneAtATime(t *testing.T) {
	mk := func() *SDRAM {
		cfg := testConfig()
		cfg.Banks = 4
		cfg.Scheduler = FCFS
		return NewSDRAM(cfg)
	}
	// A deterministic pseudo-random stream (LCG) of lines and times.
	var reqs []Request
	seed := uint64(12345)
	at := int64(0)
	for i := 0; i < 64; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		reqs = append(reqs, Request{Addr: (seed >> 33) % (1 << 20) * 128, At: at})
		at += int64(seed % 7)
	}

	one, batched := mk(), mk()
	var oneDones []int64
	for _, r := range reqs {
		oneDones = append(oneDones, access(one, r.Addr, r.At))
	}
	comps := batched.Submit(reqs)
	for i := range reqs {
		if comps[i].Done != oneDones[i] {
			t.Fatalf("req %d: batched done %d != one-at-a-time done %d",
				i, comps[i].Done, oneDones[i])
		}
	}
	if a, b := one.Stats().RowHits, batched.Stats().RowHits; a != b {
		t.Fatalf("row hits diverged: %d vs %d", a, b)
	}
}

// TestFRFCFSPromotesRowHitInBatch is the acceptance criterion: a batch
// containing a row hit queued behind a row conflict completes the hit
// first under FR-FCFS with a reorder window.
func TestFRFCFSPromotesRowHitInBatch(t *testing.T) {
	cfg := testConfig() // 1 channel, 1 bank, open page
	s := NewSDRAM(cfg)
	access(s, 0, 0) // opens row 0, done 19

	comps := s.Submit([]Request{
		{Addr: 1024, At: 30}, // row 1: conflict, arrived first
		{Addr: 128, At: 30},  // row 0, next column: hit
	})
	hit, conflict := comps[1], comps[0]
	if hit.Done >= conflict.Done {
		t.Fatalf("row hit done %d not before conflict done %d", hit.Done, conflict.Done)
	}
	// Hit promoted: starts at 30 on the open row (CAS 5 + burst 4).
	if hit.Done != 39 {
		t.Errorf("promoted hit done = %d, want 39", hit.Done)
	}
	// The conflict then waits for the bank (39), pays tRP+tRCD+tCAS+burst.
	if conflict.Done != 39+7+10+5+4 {
		t.Errorf("conflict done = %d, want %d", conflict.Done, 39+7+10+5+4)
	}
	if s.Stats().Reordered != 1 {
		t.Errorf("reordered = %d, want 1", s.Stats().Reordered)
	}

	// The same batch under FCFS services the conflict first and turns
	// the would-be hit into a second conflict: strictly slower.
	cfg.Scheduler = FCFS
	f := NewSDRAM(cfg)
	access(f, 0, 0)
	fc := f.Submit([]Request{{Addr: 1024, At: 30}, {Addr: 128, At: 30}})
	if fc[1].Done <= hit.Done {
		t.Errorf("FCFS done %d not slower than FR-FCFS promoted hit %d", fc[1].Done, hit.Done)
	}
	if f.Stats().Reordered != 0 {
		t.Errorf("FCFS reordered = %d, want 0", f.Stats().Reordered)
	}
}

// TestReorderWindowEdge: the window is eight pending reads deep. A row
// hit queued behind seven conflicts is promoted; behind eight it is out
// of sight, and by the time it comes into view the bank holds another
// row.
func TestReorderWindowEdge(t *testing.T) {
	hitDone := func(conflicts int) int64 {
		s := NewSDRAM(testConfig()) // 1 channel, 1 bank, open page
		access(s, 0, 0)             // opens row 0, done 19
		var batch []Request
		for i := 1; i <= conflicts; i++ {
			batch = append(batch, Request{Addr: uint64(i) * 1024, At: 30}) // row i
		}
		batch = append(batch, Request{Addr: 128, At: 30}) // row 0: a hit
		return s.Submit(batch)[conflicts].Done
	}
	if got := hitDone(7); got != 39 {
		t.Errorf("hit at the window's edge done = %d, want 39 (promoted)", got)
	}
	if got := hitDone(8); got <= 39 {
		t.Errorf("hit beyond the window done = %d, want later than 39", got)
	}
}

// TestCompletionsCausal: every completion is strictly after its
// arrival, for reads and posted writes alike, across random batches.
func TestCompletionsCausal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 100 // hot refresh to exercise the refresh path too
	cfg.TRFC = 20
	s := NewSDRAM(cfg)
	seed := uint64(99)
	at := int64(0)
	for b := 0; b < 50; b++ {
		var batch []Request
		n := 1 + int(seed%13)
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			batch = append(batch, Request{
				Addr:  (seed >> 33) % (1 << 22) * 128,
				Write: seed%4 == 0,
				At:    at + int64(seed%50),
			})
		}
		for _, c := range s.Submit(batch) {
			if c.Done <= c.At {
				t.Fatalf("completion not causal: done %d <= at %d (write=%v)", c.Done, c.At, c.Write)
			}
			if c.Done > at {
				at = c.Done
			}
		}
	}
}

// TestBusOccupancyNeverOverlaps: per channel, the data-bus burst
// intervals of read completions must be disjoint — one burst at a time.
func TestBusOccupancyNeverOverlaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 4
	s := NewSDRAM(cfg)
	bursts := make(map[int][][2]int64)
	seed := uint64(7)
	at := int64(0)
	for b := 0; b < 40; b++ {
		var batch []Request
		for i := 0; i < 8; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			batch = append(batch, Request{Addr: (seed >> 33) % (1 << 22) * 128, At: at})
		}
		for _, c := range s.Submit(batch) {
			bursts[c.Channel] = append(bursts[c.Channel], [2]int64{c.Done - cfg.TBurst, c.Done})
			if c.Done > at {
				at = c.Done
			}
		}
	}
	for ch, iv := range bursts {
		for i := range iv {
			for j := i + 1; j < len(iv); j++ {
				a, b := iv[i], iv[j]
				if a[0] < b[1] && b[0] < a[1] {
					t.Fatalf("channel %d: burst [%d,%d) overlaps [%d,%d)", ch, a[0], a[1], b[0], b[1])
				}
			}
		}
	}
	if len(bursts) < 2 {
		t.Fatalf("stream only reached %d channels; want fan-out", len(bursts))
	}
}

// TestWriteQueuePostsAndDrains: writes are absorbed instantly (posted
// ack at At+1), stay off the bus below the drain threshold of twelve,
// and the twelfth write's crossing drives the queue's head through the
// banks.
func TestWriteQueuePostsAndDrains(t *testing.T) {
	s := NewSDRAM(testConfig())

	var batch []Request
	for i := 0; i < 11; i++ {
		batch = append(batch, Request{Addr: uint64(i) * 1024, Write: true, At: int64(i)})
	}
	for i, c := range s.Submit(batch) {
		if c.Done != c.At+1 {
			t.Fatalf("write %d: ack %d, want %d", i, c.Done, c.At+1)
		}
	}
	st := s.Stats()
	if st.WriteDrains != 0 || st.BusyCycles != 0 {
		t.Fatalf("below threshold: drains %d busy %d, want 0/0", st.WriteDrains, st.BusyCycles)
	}
	if s.WriteRoom(0) {
		t.Fatal("eleven queued writes report room for a twelfth, which drains")
	}
	// The twelfth write crosses the threshold: eight burst.
	s.Submit([]Request{{Addr: 11 * 1024, Write: true, At: 11}})
	if st.WriteDrains != 1 {
		t.Fatalf("drains = %d, want 1", st.WriteDrains)
	}
	if want := uint64(8 * 4); st.BusyCycles != want { // 8 writes × TBurst 4
		t.Fatalf("busy cycles = %d, want %d", st.BusyCycles, want)
	}
	if st.Writes != 12 || st.Reads() != 0 {
		t.Fatalf("writes %d reads %d, want 12/0", st.Writes, st.Reads())
	}
}

// TestReadPriorityOverWrites: a posted write in the same batch never
// delays a read — reads schedule first, writes only show up as later
// bank/bus occupancy.
func TestReadPriorityOverWrites(t *testing.T) {
	readOnly := NewSDRAM(testConfig())
	alone := readOnly.Submit([]Request{{Addr: 0, At: 0}})[0].Done

	mixed := NewSDRAM(testConfig())
	comps := mixed.Submit([]Request{
		{Addr: 4096, Write: true, At: 0}, // same bank, different row
		{Addr: 0, At: 0},
	})
	if comps[1].Done != alone {
		t.Fatalf("read with write in batch done %d, want %d (unaffected)", comps[1].Done, alone)
	}
}

// TestFlushDrainsPostedWrites: Flush empties the queues so end-of-run
// statistics include all posted traffic.
func TestFlushDrainsPostedWrites(t *testing.T) {
	s := NewSDRAM(testConfig())
	s.Submit([]Request{{Addr: 0, Write: true, At: 0}})
	if s.Stats().WriteDrains != 0 {
		t.Fatal("premature drain")
	}
	s.Flush()
	if s.Stats().WriteDrains != 1 || s.Stats().BusyCycles == 0 {
		t.Fatalf("flush did not drain: %+v", s.Stats())
	}
}

// TestChannelScalingBandwidth: the same streaming batch load achieves
// higher bandwidth on more channels — the sharding the batch API
// unlocks.
func TestChannelScalingBandwidth(t *testing.T) {
	run := func(channels int) float64 {
		cfg := testConfig()
		cfg.Channels, cfg.Banks = channels, 4
		s := NewSDRAM(cfg)
		at := int64(0)
		for b := 0; b < 32; b++ {
			var batch []Request
			for i := 0; i < 16; i++ {
				batch = append(batch, Request{Addr: uint64((b*16 + i) * 128), At: at})
			}
			for _, c := range s.Submit(batch) {
				if c.Done > at {
					at = c.Done
				}
			}
		}
		return s.Stats().AchievedBandwidth()
	}
	bw1, bw4 := run(1), run(4)
	if bw4 <= bw1*1.5 {
		t.Fatalf("4-channel bandwidth %.2f not scaling over 1-channel %.2f", bw4, bw1)
	}
}

// TestFixedSubmitBatch: the flat backend treats batch requests
// independently — bit-identical to the seed's one-at-a-time model.
func TestFixedSubmitBatch(t *testing.T) {
	f := NewFixed(100)
	comps := f.Submit([]Request{
		{Addr: 0, At: 10},
		{Addr: 128, Write: true, At: 20},
	})
	if comps[0].Done != 110 || comps[1].Done != 120 {
		t.Fatalf("fixed batch dones = %d/%d, want 110/120", comps[0].Done, comps[1].Done)
	}
	if f.Stats().Writes != 1 || f.Stats().Accesses != 2 {
		t.Fatalf("fixed stats = %+v", f.Stats())
	}
}

// TestPresetsAndSpecKnobs covers the profile and knob grammar.
func TestPresetsAndSpecKnobs(t *testing.T) {
	if PresetHBM.Config().Channels != 8 {
		t.Fatalf("hbm channels = %d, want 8", PresetHBM.Config().Channels)
	}
	if p, err := ParsePreset("stacked"); err != nil || p != PresetHBM {
		t.Fatalf("ParsePreset(stacked) = %v, %v", p, err)
	}
	NewSDRAM(PresetHBM.Config()) // must not panic

	b, _, err := ParseSpecFull("sdram/bank/fcfs/hbm/4ch", 100)
	if err != nil {
		t.Fatalf("ParseSpecFull: %v", err)
	}
	cfg := b.(*SDRAM).Config()
	if cfg.Mapping != MapBank || cfg.Scheduler != FCFS || cfg.Channels != 4 ||
		cfg.TRCD != PresetHBM.Config().TRCD {
		t.Fatalf("spec config = %+v", cfg)
	}

	spec := FormatSpecOpts("sdram", "line", "frfcfs", "hbm", Knobs{Channels: 4})
	if spec != "sdram/line/frfcfs/hbm/4ch" {
		t.Fatalf("FormatSpecOpts = %q", spec)
	}
	// Round trip through ParseSpecFull.
	if _, _, err := ParseSpecFull(spec, 100); err != nil {
		t.Fatalf("round trip: %v", err)
	}

	for _, bad := range []string{
		"sdram/line/frfcfs/ddr/3ch",   // channels not a power of two
		"sdram/line/frfcfs/ddr/extra", // trailing junk
		"sdram/line/frfcfs/lpddr",     // unknown profile
	} {
		if _, _, err := ParseSpecFull(bad, 100); err == nil {
			t.Errorf("ParseSpecFull(%q) did not error", bad)
		}
	}
}

// TestSubmitArrivalOrderMatchesStableSort: byArrival must order a
// channel's batch indices exactly as sort.SliceStable did — by At, equal
// arrivals in batch order — on random index lists with few distinct
// arrival cycles (so ties are the common case), sorted runs, reversed
// runs and the empty and one-element lists Submit sees most.
func TestSubmitArrivalOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20020918))
	for trial := 0; trial < 2000; trial++ {
		batch := make([]Request, rng.Intn(96))
		spread := 1 + rng.Intn(6) // distinct At values in play
		for i := range batch {
			switch trial % 3 {
			case 0:
				batch[i].At = int64(rng.Intn(spread))
			case 1:
				batch[i].At = int64(i / spread) // already ordered, in runs of ties
			default:
				batch[i].At = int64((len(batch) - i) / spread) // reversed
			}
		}
		// A channel's list: an increasing subsequence of batch indices.
		var got []int
		for i := range batch {
			if rng.Intn(3) > 0 {
				got = append(got, i)
			}
		}
		want := append([]int(nil), got...)
		sort.SliceStable(want, func(a, b int) bool { return batch[want[a]].At < batch[want[b]].At })
		byArrival(got, batch)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: byArrival ordered %v, sort.SliceStable %v (arrivals %v)", trial, got, want, batch)
		}
	}
}

// submitRound is one warmed-up Submit of a 64-request batch — reads
// fanned over all eight channels of the HBM part, a few posted writes,
// arrivals in issue order — with the clock moved past its completions.
type submitRound struct {
	b     Backend
	batch [64]Request
	at    int64
	line  uint64
}

func newSubmitRound() *submitRound { return &submitRound{b: NewSDRAM(PresetHBM.Config())} }

func (r *submitRound) run() {
	for i := range r.batch {
		r.batch[i] = Request{Addr: r.line * 128, Write: i%16 == 15, At: r.at + int64(i/4), ID: uint64(i + 1)}
		r.line = (r.line*5 + 1) % (1 << 20) // every line of a 128 MB window once, rows and banks mixed
	}
	for _, c := range r.b.Submit(r.batch[:]) {
		r.at = max(r.at, c.Done)
	}
}

// fixedSink keeps NewFixed's result on the heap, where the machine keeps it.
var fixedSink *Fixed

// TestSubmitSteadyStateDoesNotAllocate: once the per-Submit scratch
// has seen its batch size, scheduling a batch allocates nothing — on the
// 8-channel part, ordering nine index lists by arrival included (three
// allocations each under sort.SliceStable), and on the flat backend every
// machine without a named one runs. Building the flat backend costs one
// allocation: it is built once per simulated cell, and a histogram or
// completion slice of its own would add one per cell to every paper
// figure's run.
func TestSubmitSteadyStateDoesNotAllocate(t *testing.T) {
	if ch := PresetHBM.Config().Channels; ch != 8 {
		t.Fatalf("the HBM preset has %d channels, want the 8-channel part", ch)
	}
	for _, b := range []Backend{NewSDRAM(PresetHBM.Config()), NewFixed(100)} {
		r := &submitRound{b: b}
		for i := 0; i < 16; i++ {
			r.run() // warm: scratch, write queues and policy state reach size
		}
		if n := testing.AllocsPerRun(200, r.run); n != 0 {
			t.Errorf("%s: a warmed Submit allocates %.0f times per batch, want 0", b.Name(), n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fixedSink = NewFixed(100) }); n > 1 {
		t.Errorf("NewFixed allocates %.0f times, want 1", n)
	}
}

// BenchmarkSubmit tracks the controller's host cost: one op is one
// 64-request batch.
func BenchmarkSubmit(b *testing.B) {
	r := newSubmitRound()
	r.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run()
	}
}
