package dram

import "testing"

// TestPartialDrainStopsAtLowWatermark: with WQLow set, a threshold
// crossing only retires the queue's head down to the watermark —
// observable as fewer bursts than a full drain.
func TestPartialDrainStopsAtLowWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.WQDepth, cfg.WQDrain, cfg.WQLow = 8, 4, 2
	s := NewSDRAM(cfg)
	for i := 0; i < 4; i++ {
		s.Submit([]Request{{Addr: uint64(i) * 1024, Write: true, At: int64(i)}})
	}
	st := s.Stats()
	if st.WriteDrains != 1 || st.PartialDrains != 1 {
		t.Fatalf("drains = %d (%d partial), want 1/1", st.WriteDrains, st.PartialDrains)
	}
	// Only 4-2 = 2 of the queued writes burst; the rest wait.
	if want := uint64(2 * cfg.TBurst); st.BusyCycles != want {
		t.Fatalf("busy cycles = %d, want %d (two bursts)", st.BusyCycles, want)
	}
	// Flush retires the remaining two, and counts as a full drain.
	s.Flush()
	if want := uint64(4 * cfg.TBurst); st.BusyCycles != want {
		t.Fatalf("after flush busy cycles = %d, want %d", st.BusyCycles, want)
	}
	if st.PartialDrains != 1 {
		t.Fatalf("flush must not count as partial (partial = %d)", st.PartialDrains)
	}
}

// TestOpportunisticDrainUsesIdleBus: writes queued long before a read
// arrives retire on the idle bus without delaying the read; with the
// gap disabled they stay queued.
func TestOpportunisticDrainUsesIdleBus(t *testing.T) {
	run := func(idle int64) (readDone int64, opp uint64) {
		cfg := testConfig()
		cfg.Banks = 4
		cfg.WQDepth, cfg.WQDrain = 8, 8
		cfg.WQIdle = idle
		s := NewSDRAM(cfg)
		// Two writes to banks 1 and 2, then a read to bank 0 arriving
		// much later than their bursts plus turnaround: the drain can
		// only touch the shared bus, which has long gone idle again.
		s.Submit([]Request{
			{Addr: 128, Write: true, At: 0},
			{Addr: 256, Write: true, At: 1},
		})
		done := s.Submit([]Request{{Addr: 0, At: 400}})[0].Done
		return done, s.Stats().OppDrains
	}
	baseline, opp0 := run(0)
	drained, opp := run(50)
	if opp0 != 0 {
		t.Fatalf("idle drain disabled but %d opportunistic drains", opp0)
	}
	if opp != 2 {
		t.Fatalf("opportunistic drains = %d, want 2", opp)
	}
	if drained != baseline {
		t.Fatalf("opportunistic drain delayed the read: %d vs %d", drained, baseline)
	}
}

// TestOpportunisticDrainSparesReadBank: a queued write to the arriving
// read's own bank is never drained opportunistically — it would turn
// the read's row hit into a row conflict, delaying the very read the
// drain was sized against.
func TestOpportunisticDrainSparesReadBank(t *testing.T) {
	run := func(idle int64) int64 {
		cfg := testConfig() // 1 channel, 1 bank, open page
		cfg.TTurn = 2
		cfg.WQDepth, cfg.WQDrain = 8, 8
		cfg.WQIdle = idle
		s := NewSDRAM(cfg)
		access(s, 0, 0)                                        // opens row 0
		s.Submit([]Request{{Addr: 4096, Write: true, At: 30}}) // row 4, same bank
		return s.Submit([]Request{{Addr: 0, At: 500}})[0].Done
	}
	hit, drained := run(0), run(200)
	if drained != hit {
		t.Fatalf("idle drain on the read's bank delayed the read: %d vs %d", drained, hit)
	}
}

// TestWriteReadStallCounted: a read whose data is ready while the bus
// is still finishing a write drain (plus the turnaround back to reads)
// waits, and the stat records the wait.
func TestWriteReadStallCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 4
	cfg.TTurn = 20
	cfg.WQDepth, cfg.WQDrain = 4, 2
	s := NewSDRAM(cfg)
	// Two writes on banks 1 and 2 cross the threshold and drain; the
	// read on idle bank 0 has its column data ready before the bus
	// clears the second write burst plus the 20-cycle turnaround.
	s.Submit([]Request{
		{Addr: 128, Write: true, At: 0},
		{Addr: 256, Write: true, At: 1},
	})
	done := s.Submit([]Request{{Addr: 0, At: 18}})[0].Done
	st := s.Stats()
	if st.WriteReadStall == 0 {
		t.Fatalf("write-induced read stall not recorded: %+v", st)
	}
	// The drain pays the read→write turnaround (bursts 20..24, 24..28);
	// the read's data is ready at 18+tRCD+tCAS = 33 but the bus only
	// turns back at 28+20 = 48: burst 48..52, 15 stall cycles.
	if done != 52 {
		t.Fatalf("read done = %d, want 52", done)
	}
	if st.WriteReadStall != 15 {
		t.Fatalf("write-induced stall = %d cycles, want 15", st.WriteReadStall)
	}
}
