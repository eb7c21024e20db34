package dram

import (
	"math/rand"
	"testing"
)

// TestHistoryPolicyConverges: at the controller level the live/dead
// predictor starts open, turns a conflict-thrashing bank into
// close-page (conflicts become plain activates), and counts its
// decision flips.
func TestHistoryPolicyConverges(t *testing.T) {
	cfg := testConfig()
	cfg.RowPolicy = RowHistory
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
	run := func(rp RowPolicy) ([]int64, Stats) {
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
	openDones, openStats := run(RowOpen)
	histDones, histStats := run(RowHistory)
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
	for spec, want := range map[string]RowPolicy{
		"sdram/rpclose":                         RowClose,
		"sdram/rpCLOSE":                         RowClose,
		"sdram/bank/fcfs/rphistory":             RowHistory,
		"sdram/line/frfcfs/hbm/rphistory/mshr8": RowHistory,
	} {
		b, _, err := ParseSpecFull(spec, 100)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if got := b.(*SDRAM).Config().RowPolicy; got != want {
			t.Errorf("%q: row policy %v, want %v", spec, got, want)
		}
	}
	for _, bad := range []string{
		"sdram/rplru", "sdram/rptimer", "sdram/rptimer:200", "sdram/rpopen:5", "fixed/rpopen",
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
	cfg.RowPolicy = RowClose
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

// TestParseRowPolicy pins the rp<name> grammar and its canonical
// rendering: three names, any case, no parameter.
func TestParseRowPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		ok   bool
		want RowPolicy
		out  string
	}{
		{"open", true, RowOpen, "open"},
		{"OPEN", true, RowOpen, "open"},
		{"close", true, RowClose, "close"},
		{"history", true, RowHistory, "history"},
		{"timer", false, 0, ""}, // the idle timer went
		{"timer:64", false, 0, ""},
		{"timer:0", false, 0, ""},
		{"open:5", false, 0, ""}, // no policy takes a parameter
		{"history:2", false, 0, ""},
		{"lru", false, 0, ""},
		{"", false, 0, ""},
	} {
		got, err := ParseRowPolicy(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseRowPolicy(%q): accepted=%v, want %v (err %v)", c.in, err == nil, c.ok, err)
			continue
		}
		if !c.ok {
			if err.Error() != `unknown row policy "`+c.in+`" (open, close, history)` {
				t.Errorf("ParseRowPolicy(%q): %v", c.in, err)
			}
			continue
		}
		if got != c.want || got.String() != c.out {
			t.Errorf("ParseRowPolicy(%q) = %v (%d), want %s", c.in, got, got, c.out)
		}
		if again, err := ParseRowPolicy(got.String()); err != nil || again != got {
			t.Errorf("round trip of %q via %q: %v (err %v)", c.in, got, again, err)
		}
	}
	// Set from Go rather than through the knob's row, a name no policy
	// has is refused by Build all the same.
	for _, name := range []string{"timer", "timer:200", "lru"} {
		if _, err := (&Selection{Knobs: Knobs{RP: name}}).Build("sdram", 100); err == nil {
			t.Errorf("Build with Knobs.RP %q accepted", name)
		}
	}
}

// policyPart builds a four-bank test part under rp.
func policyPart(rp RowPolicy) *SDRAM {
	cfg := testConfig()
	cfg.Banks, cfg.RowPolicy = 4, rp
	return NewSDRAM(cfg)
}

// seq drives global bank g of s through same-row (true) / other-row
// (false) observations and returns the close decision after each, plus
// the flips observed.
func seq(s *SDRAM, g int, obs []bool) (closes []bool, flips int) {
	for _, same := range obs {
		if s.train(g, same) {
			flips++
		}
		closes = append(closes, s.closesAfter(g))
	}
	return closes, flips
}

// TestOpenNeverCloses: the static open page keeps every row open
// whatever the training says, and learns nothing.
func TestOpenNeverCloses(t *testing.T) {
	s := policyPart(RowOpen)
	closes, flips := seq(s, 0, []bool{true, false, false, false, true})
	for i, c := range closes {
		if c {
			t.Fatalf("open policy closed after observation %d", i)
		}
	}
	if flips != 0 {
		t.Fatalf("open policy flipped %d times", flips)
	}
}

// TestCloseAlwaysCloses: static close auto-precharges after every
// access, training notwithstanding.
func TestCloseAlwaysCloses(t *testing.T) {
	s := policyPart(RowClose)
	closes, flips := seq(s, 1, []bool{true, true, true, false})
	for i, c := range closes {
		if !c {
			t.Fatalf("close policy kept the row open after observation %d", i)
		}
	}
	if flips != 0 {
		t.Fatalf("close policy flipped %d times", flips)
	}
}

// TestHistorySaturatingCounter walks the 2-bit predictor through a
// synthetic hit/conflict sequence: it starts weakly live (the open-page
// default), one conflict drives it dead, two hits bring it back, and
// the counter saturates at both ends.
func TestHistorySaturatingCounter(t *testing.T) {
	s := policyPart(RowHistory)
	if s.closesAfter(0) {
		t.Fatal("an untrained bank closes its row")
	}
	// conflict → dead (one flip at the threshold crossing); conflicts
	// again → saturated dead, no further flip.
	closes, flips := seq(s, 0, []bool{false, false, false})
	if !closes[0] || !closes[1] || !closes[2] {
		t.Fatalf("conflict run decisions = %v, want all closes (init is weakly live: one conflict kills it)", closes)
	}
	if flips != 1 {
		t.Fatalf("conflict run flips = %d, want 1", flips)
	}
	// hit, hit → live again (one flip); two more hits saturate.
	closes, flips = seq(s, 0, []bool{true, true, true, true})
	if !closes[0] {
		t.Fatalf("first hit already reopened the bank: %v", closes)
	}
	if closes[1] || closes[2] || closes[3] {
		t.Fatalf("hit run decisions = %v, want live from the second hit", closes)
	}
	if flips != 1 {
		t.Fatalf("hit run flips = %d, want 1", flips)
	}
	// Saturated live survives a single conflict (hysteresis).
	if s.train(0, false) {
		t.Fatal("single conflict must not flip a saturated live counter")
	}
	if s.closesAfter(0) {
		t.Fatal("one conflict closed a saturated live bank")
	}
}

// TestHistoryPerBankIsolation: training one bank never moves another's
// counter.
func TestHistoryPerBankIsolation(t *testing.T) {
	s := policyPart(RowHistory)
	seq(s, 0, []bool{false, false, false}) // bank 0 goes dead
	if s.closesAfter(1) {
		t.Fatal("bank 1 closes after bank 0's training")
	}
}

// TestRowPolicyCounters: only the history policy keeps counters, one
// per bank of the part, each starting weakly live.
func TestRowPolicyCounters(t *testing.T) {
	for _, rp := range []RowPolicy{RowOpen, RowClose} {
		if s := policyPart(rp); s.hist != nil {
			t.Errorf("%v keeps %d counters", rp, len(s.hist))
		}
	}
	s := policyPart(RowHistory)
	if len(s.hist) != 4 {
		t.Fatalf("history keeps %d counters, want 4", len(s.hist))
	}
	for g, c := range s.hist {
		if c != historyInit {
			t.Errorf("bank %d starts at %d, want %d", g, c, historyInit)
		}
	}
}

// TestHistoryMatchesReference holds the controller's history policy to
// a map-based 2-bit counter written from the policy's definition: start
// at 2, +1 on a same-row access up to 3, −1 on an other-row access down
// to 0, keep the row open at 2 or more. Seeded random accesses, each to
// a random bank of four with that bank's own chance of returning to its
// last row, are served one at a time through Submit; after each, the
// controller's close (RowClosedEarly), flips (PredictorFlips) and row
// hits must be the model's.
func TestHistoryMatchesReference(t *testing.T) {
	stay := []float64{0.9, 0.6, 0.3, 0.05} // per bank: chance of a same-row access
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := policyPart(RowHistory)
		ctr := map[int]int{}
		lastRow := map[int]int64{}
		open := map[int]bool{} // the model's row buffer: bank → last row kept open
		var closes, flips, hits uint64
		t0 := int64(0)
		for i := 0; i < 2000; i++ {
			b := rng.Intn(len(stay))
			row, seen := lastRow[b]
			if !seen || rng.Float64() >= stay[b] {
				row = rng.Int63n(64)
			}
			// Model: train against the last row, then decide.
			c, ok := ctr[b]
			if !ok {
				c = 2
			}
			if seen {
				was := c >= 2
				if row == lastRow[b] {
					c = min(c+1, 3)
				} else {
					c = max(c-1, 0)
				}
				if (c >= 2) != was {
					flips++
				}
				if open[b] && row == lastRow[b] {
					hits++
				}
			}
			ctr[b], lastRow[b], open[b] = c, row, c >= 2
			if c < 2 {
				closes++
			}
			// Controller: line-interleaved banks, any column of the row.
			col := uint64(rng.Intn(8))
			addr := ((uint64(row)<<3|col)<<2 | uint64(b)) * lineBytes
			t0 += 1000
			access(s, addr, t0)
			st := s.Stats()
			if st.RowClosedEarly != closes || st.PredictorFlips != flips || st.RowHits != hits {
				t.Fatalf("seed %d access %d (bank %d row %d): closed %d flips %d hits %d, model %d/%d/%d",
					seed, i, b, row, st.RowClosedEarly, st.PredictorFlips, st.RowHits, closes, flips, hits)
			}
		}
		if flips == 0 || closes == 0 || hits == 0 {
			t.Fatalf("seed %d never exercised the predictor: %d flips, %d closes, %d hits", seed, flips, closes, hits)
		}
	}
}
