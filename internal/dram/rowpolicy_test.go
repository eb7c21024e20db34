package dram

import (
	"testing"

	"repro/internal/dram/policy"
)

// TestTimerPolicyClosesIdleRows: the idle-timer policy precharges a row
// lazily once the bank has sat idle past the gap — an access inside the
// gap still hits, an access after it pays a plain activate (not a
// conflict), and the wasted-close accounting fires when the same row is
// reopened.
func TestTimerPolicyClosesIdleRows(t *testing.T) {
	cfg := testConfig() // 1 channel, 1 bank; TRCD 10, TCAS 5, TRP 7, TBurst 4
	cfg.RowPolicy = policy.Spec{Kind: policy.Timer, Idle: 20}
	s := NewSDRAM(cfg)

	// Cold activate: done at 19; the timer arms for 19+20 = 39.
	if got := access(s, 0, 0); got != 19 {
		t.Fatalf("cold access done = %d, want 19", got)
	}
	// Inside the gap the row is still open: a same-row access hits.
	if got, want := access(s, 128, 25), int64(25+5+4); got != want {
		t.Fatalf("in-gap access done = %d, want %d (row hit)", got, want)
	}
	// The hit re-arms the timer for 34+20 = 54. Arriving long after, the
	// row was precharged during the idle gap: a plain activate, never a
	// conflict — and reopening the same row counts as a wasted close.
	if got, want := access(s, 256, 100), int64(100+10+5+4); got != want {
		t.Fatalf("post-gap access done = %d, want %d (activate from idle)", got, want)
	}
	st := s.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 || st.RowConflicts != 0 {
		t.Fatalf("stats = hit %d miss %d conflict %d, want 1/2/0", st.RowHits, st.RowMisses, st.RowConflicts)
	}
	if st.RowClosedEarly != 1 || st.RowReopened != 1 {
		t.Fatalf("closed early %d reopened %d, want 1/1", st.RowClosedEarly, st.RowReopened)
	}
}

// TestTimerPolicyPrechargeOccupiesBank: an access landing inside the
// precharge the fired timer started waits for it to finish before
// activating.
func TestTimerPolicyPrechargeOccupiesBank(t *testing.T) {
	cfg := testConfig()
	cfg.RowPolicy = policy.Spec{Kind: policy.Timer, Idle: 20}
	s := NewSDRAM(cfg)
	access(s, 0, 0) // done 19, timer fires at 39, precharge busy until 46
	// Arriving at 40, the precharge (39..46) is still in flight: the
	// activate starts at 46.
	if got, want := access(s, 128, 40), int64(46+10+5+4); got != want {
		t.Fatalf("in-precharge access done = %d, want %d", got, want)
	}
}

// TestTimerPolicyDefeatsConflict: the timer's payoff — a different-row
// access after the gap pays activate only, where open-page would have
// paid precharge + activate.
func TestTimerPolicyDefeatsConflict(t *testing.T) {
	run := func(rp policy.Spec) int64 {
		cfg := testConfig()
		cfg.RowPolicy = rp
		s := NewSDRAM(cfg)
		access(s, 0, 0)
		return access(s, 4096, 200) // row 4: a conflict under open page
	}
	open := run(policy.Spec{})
	timer := run(policy.Spec{Kind: policy.Timer, Idle: 20})
	if want := int64(200 + 7 + 10 + 5 + 4); open != want {
		t.Fatalf("open-page conflict done = %d, want %d", open, want)
	}
	if want := int64(200 + 10 + 5 + 4); timer != want {
		t.Fatalf("timer activate done = %d, want %d (precharge hidden in the idle gap)", timer, want)
	}
}

// TestHistoryPolicyConverges: at the controller level the live/dead
// predictor starts open, turns a conflict-thrashing bank into
// close-page (conflicts become plain activates), and counts its
// decision flips.
func TestHistoryPolicyConverges(t *testing.T) {
	cfg := testConfig()
	cfg.RowPolicy = policy.Spec{Kind: policy.History}
	s := NewSDRAM(cfg)

	// Alternate rows 0 and 1 on the one bank with long gaps. The first
	// access trains nothing; the second (different row) flips the
	// weakly-live counter dead and still pays the full conflict; from
	// the third on the bank auto-precharges, so alternating rows cost
	// activate only.
	t0 := int64(0)
	rows := []uint64{0, 1024, 0, 1024, 0}
	var dones []int64
	for _, addr := range rows {
		t0 += 100
		dones = append(dones, access(s, addr, t0))
	}
	st := s.Stats()
	if st.RowConflicts != 1 {
		t.Fatalf("conflicts = %d, want exactly the one pre-flip conflict", st.RowConflicts)
	}
	if st.RowMisses != 4 {
		t.Fatalf("misses = %d, want 4 (cold + three auto-precharged activates)", st.RowMisses)
	}
	if st.PredictorFlips != 1 {
		t.Fatalf("flips = %d, want 1 (live→dead)", st.PredictorFlips)
	}
	// The post-convergence accesses pay activate only.
	for i := 2; i < len(dones); i++ {
		arrival := int64(100 * (i + 1))
		if want := arrival + 10 + 5 + 4; dones[i] != want {
			t.Fatalf("access %d done = %d, want %d (activate from auto-precharged bank)", i, dones[i], want)
		}
	}
}

// TestHistoryPolicyMatchesOpenOnStreams: on a row-friendly stream the
// predictor never leaves the open-page behaviour — completions match
// the static open policy bit for bit and no row is ever closed early.
func TestHistoryPolicyMatchesOpenOnStreams(t *testing.T) {
	run := func(rp policy.Spec) ([]int64, Stats) {
		cfg := DefaultConfig()
		cfg.Mapping = MapBank
		cfg.RowPolicy = rp
		s := NewSDRAM(cfg)
		t0 := int64(0)
		var dones []int64
		for i := 0; i < 512; i++ {
			t0 = access(s, uint64(i*lineBytes), t0)
			dones = append(dones, t0)
		}
		return dones, *s.Stats()
	}
	openDones, openStats := run(policy.Spec{})
	histDones, histStats := run(policy.Spec{Kind: policy.History})
	for i := range openDones {
		if openDones[i] != histDones[i] {
			t.Fatalf("access %d: history done %d != open done %d", i, histDones[i], openDones[i])
		}
	}
	if histStats.RowHits != openStats.RowHits || histStats.RowClosedEarly != 0 {
		t.Fatalf("history stats diverged on a streaming load: %+v vs %+v", histStats, openStats)
	}
}

// TestRowPolicySpecEquivalence: the explicit rpopen token builds the
// same controller the bare spec does, and every policy token round-
// trips through the knob grammar.
func TestRowPolicySpecEquivalence(t *testing.T) {
	base, _, err := ParseSpecFull("sdram/line/frfcfs", 100)
	if err != nil {
		t.Fatal(err)
	}
	open, _, err := ParseSpecFull("sdram/line/frfcfs/rpopen", 100)
	if err != nil {
		t.Fatal(err)
	}
	if base.Name() != open.Name() {
		t.Fatalf("rpopen name %q != bare %q", open.Name(), base.Name())
	}
	if a, b := base.(*SDRAM).Config(), open.(*SDRAM).Config(); a != b {
		t.Fatalf("rpopen config diverged:\n%+v\n%+v", a, b)
	}
	for spec, want := range map[string]policy.Spec{
		"sdram/rpclose":                         {Kind: policy.Close},
		"sdram/rptimer:64":                      {Kind: policy.Timer, Idle: 64},
		"sdram/rptimer":                         {Kind: policy.Timer, Idle: policy.DefaultTimerIdle},
		"sdram/bank/fcfs/rphistory":             {Kind: policy.History},
		"sdram/line/frfcfs/hbm/rphistory/mshr8": {Kind: policy.History},
	} {
		b, _, err := ParseSpecFull(spec, 100)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if got := b.(*SDRAM).Config().RowPolicy; got != want {
			t.Errorf("%q: row policy %+v, want %+v", spec, got, want)
		}
	}
	for _, bad := range []string{
		"sdram/rplru", "sdram/rptimer:0", "sdram/rpopen:5", "fixed/rpopen",
	} {
		if _, _, err := ParseSpecFull(bad, 100); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// pfReq builds a prefetch-tagged read.
func pfReq(addr uint64, at int64) Request {
	return Request{Addr: addr, At: at, Prefetch: true}
}

// capConfig is testConfig widened to 16 banks with a one-cycle burst,
// so reads to distinct banks activate side by side and the bus orders
// their data back to back.
func capConfig() Config {
	cfg := testConfig()
	cfg.Banks, cfg.TBurst = 16, 1
	return cfg
}

// nineReads is one read to each of banks 0..8 at cycle 0, speculative
// or not: one more than the eight-read prefetch cap.
func nineReads(prefetch bool) []Request {
	var reqs []Request
	for i := 0; i < 9; i++ {
		reqs = append(reqs, Request{Addr: uint64(i) * 128, Prefetch: prefetch})
	}
	return reqs
}

// TestPrefetchQueueCapDefers: speculative reads beyond the per-channel
// cap wait for an earlier prefetch to complete, and the deferrals are
// counted.
func TestPrefetchQueueCapDefers(t *testing.T) {
	s := NewSDRAM(capConfig())
	// Nine same-cycle prefetches to different banks: the first eight
	// have their data ready at 15 and burst 15..23; with a cap of eight
	// the ninth must wait out the first's completion (16) before it can
	// even occupy a slot.
	comps := s.Submit(nineReads(true))
	if comps[7].Done != 23 {
		t.Fatalf("eighth prefetch done = %d, want 23", comps[7].Done)
	}
	// Deferred to 16, activate overlapped nothing: 16+10+5+1.
	if want := int64(16 + 10 + 5 + 1); comps[8].Done != want {
		t.Fatalf("capped prefetch done = %d, want %d", comps[8].Done, want)
	}
	if s.Stats().PrefetchDeferred != 1 {
		t.Fatalf("deferred = %d, want 1", s.Stats().PrefetchDeferred)
	}
	// Demand reads never touch the cap: the ninth bursts right after the
	// eighth.
	s = NewSDRAM(capConfig())
	comps = s.Submit(nineReads(false))
	if s.Stats().PrefetchDeferred != 0 {
		t.Fatalf("demand reads deferred: %+v", s.Stats())
	}
	if comps[8].Done != 24 {
		t.Fatalf("demand read throttled like a prefetch: done %d, want 24", comps[8].Done)
	}
}

// TestDemandPriorityAfterPressure: once a channel's speculative stream
// has overrun its cap, demand reads are picked ahead of older
// prefetches in the reorder window; prefetches a demand already merged
// onto (Demanded) keep demand standing.
func TestDemandPriorityAfterPressure(t *testing.T) {
	mk := func() *SDRAM { return NewSDRAM(capConfig()) }
	// Latch the channel into demand-first mode with cap pressure.
	latch := func(s *SDRAM) {
		s.Submit(nineReads(true))
		if s.Stats().PrefetchDeferred == 0 {
			t.Fatal("latch batch did not defer")
		}
	}

	s := mk()
	latch(s)
	// An older prefetch and a younger demand on idle banks 9 and 10:
	// the demand is serviced first (its burst wins the bus).
	comps := s.Submit([]Request{pfReq(1152, 100), {Addr: 1280, At: 101}})
	if comps[1].Done >= comps[0].Done {
		t.Fatalf("demand done %d not before older prefetch %d", comps[1].Done, comps[0].Done)
	}

	// The same batch with the prefetch already demanded (a late
	// prefetch merge): arrival order holds again.
	s = mk()
	latch(s)
	comps = s.Submit([]Request{
		{Addr: 1152, At: 100, Prefetch: true, Demanded: true},
		{Addr: 1280, At: 101},
	})
	if comps[0].Done >= comps[1].Done {
		t.Fatalf("demanded prefetch done %d not before younger demand %d", comps[0].Done, comps[1].Done)
	}

	// Without the latch (no cap pressure), speculative reads keep full
	// FR-FCFS standing: arrival order between the same two requests.
	s = mk()
	comps = s.Submit([]Request{pfReq(1152, 100), {Addr: 1280, At: 101}})
	if comps[0].Done >= comps[1].Done {
		t.Fatalf("unlatched prefetch done %d not before younger demand %d", comps[0].Done, comps[1].Done)
	}
}

// TestRowPolicyStatsAccounting: close-page closes are RowClosedEarly,
// and a same-row return is RowReopened — the wasted-close signal.
func TestRowPolicyStatsAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.RowPolicy = policy.Spec{Kind: policy.Close}
	s := NewSDRAM(cfg)
	access(s, 0, 0)
	access(s, 128, 50) // same row: the close was wasted
	access(s, 4096, 100)
	st := s.Stats()
	if st.RowClosedEarly != 3 {
		t.Fatalf("closed early = %d, want 3 (every access auto-precharges)", st.RowClosedEarly)
	}
	if st.RowReopened != 1 {
		t.Fatalf("reopened = %d, want 1 (only the same-row return)", st.RowReopened)
	}
}
