package vm

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// The pool against a naive linear scan of a []bool: a seeded random
// sequence of targeted claims, lowest-free claims and predicate finds
// must get the reference's answer every time (the lowest qualifying
// page), never hand a page out twice, and keep FreePages at n minus the
// pages held. n is not a multiple of 64, so the bitmap's last word has
// bits past the pool.
func TestPoolMatchesLinearScan(t *testing.T) {
	const n = 300
	p := newPool(n)
	held := make([]bool, n)
	lowest := func(pred func(uint64) bool) (uint64, bool) {
		for i := range held {
			if !held[i] && (pred == nil || pred(uint64(i))) {
				return uint64(i), true
			}
		}
		return 0, false
	}
	rng := rand.New(rand.NewSource(29))
	nheld := 0
	for step := 0; nheld < n; step++ {
		var got, want uint64
		var gotOK, wantOK bool
		switch op := rng.Intn(3); op {
		case 0: // targeted claim, sometimes past the pool
			i := uint64(rng.Intn(n + 8))
			got, gotOK = i, p.claim(i)
			want, wantOK = i, i < n && !held[i]
		case 1: // lowest free page
			got, gotOK = p.find(nil)
			want, wantOK = lowest(nil)
		default: // lowest free page on a residue class, or above a bound
			m, r := uint64(rng.Intn(7)+1), uint64(rng.Intn(7))
			pred := func(i uint64) bool { return i%m == r%m }
			if rng.Intn(2) == 0 {
				pred = func(i uint64) bool { return i > r*40 }
			}
			got, gotOK = p.find(pred)
			want, wantOK = lowest(pred)
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d: pool answered %d,%v, linear scan %d,%v", step, got, gotOK, want, wantOK)
		}
		if gotOK {
			if held[got] {
				t.Fatalf("step %d: page %d handed out twice", step, got)
			}
			held[got] = true
			nheld++
		}
		if p.free != n-uint64(nheld) {
			t.Fatalf("step %d: FreePages = %d with %d of %d pages held", step, p.free, nheld, n)
		}
	}
	if i, ok := p.find(nil); ok {
		t.Fatalf("full pool handed out page %d", i)
	}
}

// The pool's own invariants under a seeded random workload of targeted
// claims and first-fit allocations: free counts the clear bits, no bit
// past the pool is ever set, and low never passes a word that still
// holds a free page. Once every page is held, low sits past the last
// word and first-fit reports the pool full. (The Buddy names are kept
// from the allocator the pool replaced.)
func TestBuddySplitMergeProperty(t *testing.T) {
	const n = 256
	p := newPool(n)
	check := func(step int) {
		var used uint64
		for w, word := range p.used {
			used += uint64(bits.OnesCount64(word))
			if w < p.low && word != ^uint64(0) {
				t.Fatalf("step %d: low = %d passed word %d with free pages %#x", step, p.low, w, ^word)
			}
		}
		if p.free != n-used {
			t.Fatalf("step %d: free = %d with %d bits set", step, p.free, used)
		}
	}
	rng := rand.New(rand.NewSource(9))
	held := map[uint64]bool{}
	for step := 0; len(held) < n; step++ {
		if rng.Intn(2) == 0 { // targeted claim
			i := uint64(rng.Intn(n))
			if p.claim(i) {
				if held[i] {
					t.Fatalf("step %d: claim handed out held page %d", step, i)
				}
				held[i] = true
			} else if !held[i] {
				t.Fatalf("step %d: claim refused free page %d", step, i)
			}
		} else if i, ok := p.find(nil); ok { // first-fit
			if held[i] {
				t.Fatalf("step %d: first-fit handed out held page %d", step, i)
			}
			held[i] = true
		} else {
			t.Fatalf("step %d: pool reported full with %d/%d pages held", step, len(held), n)
		}
		check(step)
	}
	if p.low != len(p.used) {
		t.Fatalf("full pool: low = %d, want %d", p.low, len(p.used))
	}
	if i, ok := p.find(nil); ok {
		t.Fatalf("full pool handed out page %d", i)
	}
}

func TestBuddyFirstFitIsLowestAddress(t *testing.T) {
	p := newPool(16)
	for want := uint64(0); want < 4; want++ {
		if i, ok := p.find(nil); !ok || i != want {
			t.Fatalf("first-fit = %d,%v, want %d", i, ok, want)
		}
	}
	// A targeted claim past the low end leaves the hole below it first.
	if !p.claim(5) {
		t.Fatal("claim(5) refused a free page")
	}
	for _, want := range []uint64{4, 6} {
		if i, ok := p.find(nil); !ok || i != want {
			t.Fatalf("first-fit after claiming 5 = %d,%v, want %d", i, ok, want)
		}
	}
}

func TestBuddyFindPage(t *testing.T) {
	p := newPool(16)
	// Claim pages 0..3, then search for the lowest free page with an
	// odd index: must be 5.
	for i := uint64(0); i < 4; i++ {
		if !p.claim(i) {
			t.Fatalf("claim(%d) failed", i)
		}
	}
	i, ok := p.find(func(i uint64) bool { return i%2 == 1 })
	if !ok || i != 5 {
		t.Fatalf("find(odd) = %d,%v, want 5", i, ok)
	}
	if _, ok := p.find(func(i uint64) bool { return i >= 16 }); ok {
		t.Fatal("find matched an impossible predicate")
	}
}

// The "physical page pool exhausted" panic needs a bug: the largest
// page footprint any stream of kernels.Extended touches, times the most
// tenants a machine can hold, fits the default pool. Recomputed from
// the full-size streams, so a kernel that grows its working set fails
// here rather than on a user's -tenants run.
func TestLargestFootprintFitsThePool(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 18 full-size streams")
	}
	cfg := DefaultConfig()
	var rec trace.Recorder
	var largest int
	var which string
	for _, bm := range kernels.Extended() {
		for _, v := range kernels.Variants {
			s, _ := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			pages := map[uint64]bool{}
			var buf []uint64
			for _, in := range s.All() {
				buf = pagesOf(&in, buf, cfg.PageBits)
				for _, vpn := range buf {
					pages[vpn] = true
				}
			}
			if len(pages) > largest {
				largest, which = len(pages), bm.Name+"/"+v.String()
			}
		}
	}
	t.Logf("largest footprint: %s, %d pages", which, largest)
	if need := uint64(largest) * dram.MaxTenants; need > cfg.PhysPages {
		t.Fatalf("%s touches %d pages: %d tenants need %d, the pool holds %d",
			which, largest, dram.MaxTenants, need, cfg.PhysPages)
	}
}
