package vm

import (
	"testing"

	"repro/internal/isa"
)

// testConfig shrinks the geometry so eviction and walk paths are easy
// to reach.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 2, 2
	cfg.L2Sets, cfg.L2Ways = 4, 2
	cfg.PhysPages = 64
	return cfg
}

func scalarLoad(va uint64) *isa.Inst {
	return &isa.Inst{Kind: isa.KindScalarMem, Addr: va, Imm: 8}
}

// A first touch walks the full table (demand fault included) and the
// instruction stalls Levels*WalkLat cycles; once the walk fills the
// TLBs the same page is an L1 hit and issues immediately.
func TestReadyTimingAndIdempotence(t *testing.T) {
	v := New(testConfig(), 1, nil)
	sp := v.Space(0)
	in := scalarLoad(0x4000)
	walkDone := int64(100) + int64(v.cfg.Levels)*v.cfg.WalkLat

	if got := sp.Ready(in, 1, 100); got != walkDone {
		t.Fatalf("first-touch Ready = %d, want walk completion at %d", got, walkDone)
	}
	if sp.st.Faults != 1 || v.wst.Walks != 1 {
		t.Fatalf("faults=%d walks=%d, want 1/1", sp.st.Faults, v.wst.Walks)
	}
	// Per-cycle oracle behavior: the stalled instruction re-polls every
	// cycle. The transaction must absorb the retries without touching
	// TLB or walk state again.
	for now := int64(101); now < walkDone; now++ {
		if got := sp.Ready(in, 1, now); got != walkDone {
			t.Fatalf("retry at %d returned %d, want %d", now, got, walkDone)
		}
	}
	if v.wst.Walks != 1 || sp.st.L1Misses != 1 {
		t.Fatalf("retries restarted the transaction: walks=%d l1misses=%d", v.wst.Walks, sp.st.L1Misses)
	}
	// At the ready cycle the transaction retires and fills the TLBs.
	if got := sp.Ready(in, 1, walkDone); got != walkDone {
		t.Fatalf("Ready at completion = %d, want %d", got, walkDone)
	}
	if v.wst.Latency.Count() != 1 {
		t.Fatalf("walk latency histogram count = %d, want 1", v.wst.Latency.Count())
	}
	// A fresh instruction on the same page is an L1 TLB hit: no stall.
	if got := sp.Ready(scalarLoad(0x4008), 2, walkDone+1); got != walkDone+1 {
		t.Fatalf("post-fill Ready = %d, want immediate issue", got)
	}
	if sp.st.L1Hits != 1 {
		t.Fatalf("L1Hits = %d, want 1", sp.st.L1Hits)
	}
}

// Two instructions missing the same page must share one walk.
func TestWalkCoalescing(t *testing.T) {
	v := New(testConfig(), 1, nil)
	sp := v.Space(0)
	d1 := sp.Ready(scalarLoad(0x9000), 1, 50)
	d2 := sp.Ready(scalarLoad(0x9010), 2, 55)
	if d1 != d2 {
		t.Fatalf("coalesced walk completions differ: %d vs %d", d1, d2)
	}
	if v.wst.Walks != 1 || v.wst.Coalesced != 1 {
		t.Fatalf("walks=%d coalesced=%d, want 1/1", v.wst.Walks, v.wst.Coalesced)
	}
}

// An L1-capacity-evicted translation should still hit the bigger
// shared L2 TLB, paying only the L2 penalty.
func TestL2TLBHitPath(t *testing.T) {
	cfg := testConfig()
	v := New(cfg, 1, nil)
	sp := v.Space(0)
	// Touch more pages than the 4-entry L1 holds; all land in the L2.
	var done int64
	for i := uint64(0); i < 8; i++ {
		seq := i + 1
		d := sp.Ready(scalarLoad(i<<cfg.PageBits), seq, done)
		done = d
		sp.Ready(scalarLoad(i<<cfg.PageBits), seq, done) // retire
	}
	if sp.st.L1Evictions == 0 {
		t.Fatalf("expected L1 evictions after 8 pages in a 4-entry L1")
	}
	// Page 0 was evicted from L1 but lives in L2: the stall must be
	// exactly the L2 penalty, not a walk.
	h0 := v.st.L2Hits
	d := sp.Ready(scalarLoad(0), 100, done)
	if d != done+cfg.L2TLBLat {
		t.Fatalf("L2-hit stall = %d cycles, want %d", d-done, cfg.L2TLBLat)
	}
	if v.st.L2Hits != h0+1 {
		t.Fatalf("L2Hits = %d, want %d", v.st.L2Hits, h0+1)
	}
}

// fakeChans maps 8 KiB stripes round-robin over 4 channels — the ddr
// bank-mapping shape (channel bits just above the page offset).
type fakeChans struct{}

func (fakeChans) ChannelOf(addr uint64) int { return int(addr>>13) & 3 }
func (fakeChans) ChannelCount() int         { return 4 }

// The placement policies must actually differ: coloring spreads a
// space's pages evenly over channels, co-location keeps them
// physically contiguous, first-fit takes the lowest hole. Pages fault
// in through Ready, one first touch each.
func TestPlacementPolicies(t *testing.T) {
	fault := func(p Policy) *Space {
		cfg := testConfig()
		cfg.Policy = p
		v := New(cfg, 1, fakeChans{})
		sp := v.Space(0)
		for vpn := uint64(0); vpn < 16; vpn++ {
			sp.Ready(scalarLoad(vpn<<cfg.PageBits), vpn+1, 0)
		}
		if sp.st.Faults != 16 || v.FreePages() != cfg.PhysPages-16 {
			t.Fatalf("%v: %d faults, %d free pages, want 16 and %d", p, sp.st.Faults, v.FreePages(), cfg.PhysPages-16)
		}
		return sp
	}

	colored := fault(PolicyColor)
	perChan := make([]int, 4)
	for vpn := uint64(0); vpn < 16; vpn++ {
		ppn, _ := colored.pt.Lookup(vpn)
		perChan[colored.vm.pageChannel(ppn)]++
	}
	for ch, n := range perChan {
		if n != 4 {
			t.Fatalf("coloring left channel %d with %d/16 pages: %v", ch, n, perChan)
		}
	}

	colo := fault(PolicyColocate)
	for vpn := uint64(0); vpn < 16; vpn++ {
		ppn, ok := colo.pt.Lookup(vpn)
		if !ok || ppn != vpn {
			t.Fatalf("co-location broke contiguity: vpn %d -> ppn %d", vpn, ppn)
		}
	}

	ff := fault(PolicyFirstFit)
	if ppn, _ := ff.pt.Lookup(0); ppn != 0 {
		t.Fatalf("first-fit did not start at the lowest page: %d", ppn)
	}
}

// Two spaces are isolated: the same virtual page maps to different
// frames, and the shared L2 TLB keeps the translations apart.
func TestSpaceIsolation(t *testing.T) {
	v := New(testConfig(), 2, nil)
	a, b := v.Space(0), v.Space(1)
	a.Ready(scalarLoad(0x4000), 1, 0)
	b.Ready(scalarLoad(0x4000), 1, 0)
	pa, pb := a.Translate(0x4000), b.Translate(0x4000)
	if pa == pb {
		t.Fatalf("two tenants share frame %#x for one virtual page", pa)
	}
	if a.Translate(0x4004) != pa+4 {
		t.Fatal("page-offset bits not preserved")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"first": PolicyFirstFit, "color": PolicyColor, "colo": PolicyColocate} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestReadySteadyStateDoesNotAllocate pins "a steady-state cycle
// allocates nothing per event" on the translation path. A round issues
// one instruction per page over 16 pages, twice what the test L2 TLB
// holds, each touching its own page and the next. Each is polled the way
// the per-cycle engine polls a stalled instruction: a first call that
// starts a walk, a re-poll every cycle, and a last call at the ready
// cycle that retires the transaction and fills the TLBs. The warm-up
// round claims the pages and grows the page table; the measured rounds
// walk every page again, because the TLBs cannot hold them.
func TestReadySteadyStateDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	v := New(cfg, 1, nil)
	sp := v.Space(0)
	var ins []*isa.Inst
	for p := uint64(0); p < 16; p++ {
		ins = append(ins, &isa.Inst{Kind: isa.KindMOMMem, Addr: p<<cfg.PageBits + 64, VL: 2, Stride: 1 << cfg.PageBits})
	}
	now, seq := int64(0), uint64(0)
	round := func() {
		for _, in := range ins {
			seq++
			for ready := sp.Ready(in, seq, now); now < ready; {
				now++
				sp.Ready(in, seq, now)
			}
		}
	}
	round()
	walks := v.wst.Walks
	if n := testing.AllocsPerRun(4, round); n != 0 {
		t.Errorf("a warmed round of Ready calls allocates %.1f times, want 0", n)
	}
	// AllocsPerRun runs one more round than it measures; each of the five
	// walks all 17 pages the round touches.
	if got := v.wst.Walks - walks; got != 5*17 {
		t.Errorf("the rounds started %d walks, want one per page touched (%d): the pin did not stall", got, 5*17)
	}
	if len(sp.inflight) != 0 || len(sp.walks) != 0 {
		t.Errorf("%d transactions and %d walks left in flight after the rounds", len(sp.inflight), len(sp.walks))
	}
}
