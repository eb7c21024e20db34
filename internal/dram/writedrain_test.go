package dram

import "testing"

// postWrites submits n posted writes, one a cycle from cycle 0, each to
// its own row of bank 0 (testConfig's rows are 1 KB).
func postWrites(s *SDRAM, n int) {
	for i := 0; i < n; i++ {
		s.Submit([]Request{{Addr: uint64(i) * 1024, Write: true, At: int64(i)}})
	}
}

// TestPartialDrainStopsAtLowWatermark: the threshold crossing only
// retires the queue's head down to the watermark of four — observable
// as fewer bursts than a full drain.
func TestPartialDrainStopsAtLowWatermark(t *testing.T) {
	cfg := testConfig()
	s := NewSDRAM(cfg)
	postWrites(s, 12)
	st := s.Stats()
	if st.WriteDrains != 1 || st.PartialDrains != 1 {
		t.Fatalf("drains = %d (%d partial), want 1/1", st.WriteDrains, st.PartialDrains)
	}
	// Only 12-4 = 8 of the queued writes burst; the rest wait.
	if want := uint64(8 * cfg.TBurst); st.BusyCycles != want {
		t.Fatalf("busy cycles = %d, want %d (eight bursts)", st.BusyCycles, want)
	}
	// Flush retires the remaining four, and counts as a full drain.
	s.Flush()
	if want := uint64(12 * cfg.TBurst); st.BusyCycles != want {
		t.Fatalf("after flush busy cycles = %d, want %d", st.BusyCycles, want)
	}
	if st.PartialDrains != 1 {
		t.Fatalf("flush must not count as partial (partial = %d)", st.PartialDrains)
	}
}

// TestOpportunisticDrainUsesIdleBus: writes queued before a read that
// finds the bus idle for 30 cycles retire on it without delaying the
// read; a read one cycle sooner leaves them queued.
func TestOpportunisticDrainUsesIdleBus(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 4
	run := func(writes bool, at int64) (readDone int64, opp uint64) {
		s := NewSDRAM(cfg)
		// Two writes to banks 1 and 2, then a read to bank 0: the drain
		// can only touch the shared bus, which has never been used, and
		// both bursts end (cycles 19 and 23) before the read arrives.
		if writes {
			s.Submit([]Request{
				{Addr: 128, Write: true, At: 0},
				{Addr: 256, Write: true, At: 1},
			})
		}
		done := s.Submit([]Request{{Addr: 0, At: at}})[0].Done
		return done, s.Stats().OppDrains
	}
	if _, opp := run(true, 29); opp != 0 {
		t.Fatalf("bus idle 29 cycles but %d opportunistic drains", opp)
	}
	drained, opp := run(true, 30)
	if opp != 2 {
		t.Fatalf("opportunistic drains = %d, want 2", opp)
	}
	if alone, _ := run(false, 30); drained != alone {
		t.Fatalf("opportunistic drain delayed the read: %d vs %d", drained, alone)
	}
}

// TestOpportunisticDrainSparesReadBank: a queued write to the arriving
// read's own bank is never drained opportunistically — it would turn
// the read's row hit into a row conflict, delaying the very read the
// drain was sized against.
func TestOpportunisticDrainSparesReadBank(t *testing.T) {
	run := func(write bool) (int64, uint64) {
		cfg := testConfig() // 1 channel, 1 bank, open page
		cfg.TTurn = 2
		s := NewSDRAM(cfg)
		access(s, 0, 0) // opens row 0
		if write {
			s.Submit([]Request{{Addr: 4096, Write: true, At: 30}}) // row 4, same bank
		}
		return s.Submit([]Request{{Addr: 0, At: 500}})[0].Done, s.Stats().OppDrains
	}
	hit, _ := run(false)
	drained, opp := run(true)
	if drained != hit || opp != 0 {
		t.Fatalf("idle drain on the read's bank delayed the read: %d vs %d (%d drained)", drained, hit, opp)
	}
}

// TestWriteReadStallCounted: a read whose data is ready while the bus
// is still finishing a write drain (plus the turnaround back to reads)
// waits, and the stat records the wait.
func TestWriteReadStallCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 4
	cfg.TTurn = 20
	s := NewSDRAM(cfg)
	// Twelve writes down one row of bank 1 cross the threshold at cycle
	// 12 and drain the eight oldest: the first pays an activate and the
	// read→write turnaround (burst 27..31), each later one a column hit
	// once the bank frees (9 cycles apart), so the last burst ends at
	// 31+7*9 = 94.
	for i := 0; i < 12; i++ {
		s.Submit([]Request{{Addr: 128 + uint64(i)*512, Write: true, At: int64(i)}})
	}
	// The read on idle bank 0 has its data ready at 80+tRCD+tCAS = 95,
	// but the bus only turns back at 94+20 = 114: burst 114..118, 19
	// stall cycles.
	done := s.Submit([]Request{{Addr: 0, At: 80}})[0].Done
	st := s.Stats()
	if done != 118 {
		t.Fatalf("read done = %d, want 118", done)
	}
	if st.WriteReadStall != 19 {
		t.Fatalf("write-induced stall = %d cycles, want 19", st.WriteReadStall)
	}
}
