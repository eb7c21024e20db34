package engine

import (
	"math/rand"
	"testing"
)

// drain pops every event due at or before now, returning the payloads.
func drain(r *Ring, now int64) []uint64 {
	var out []uint64
	for {
		d, ok := r.PopUpTo(now)
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

func TestRingBasic(t *testing.T) {
	r := NewRing(256)
	if _, ok := r.NextCycle(); ok {
		t.Fatal("empty ring reports a next cycle")
	}
	r.Schedule(10, 1)
	r.Schedule(5, 2)
	r.Schedule(10, 3)
	if c, ok := r.NextCycle(); !ok || c != 5 {
		t.Fatalf("NextCycle = %d,%v, want 5", c, ok)
	}
	if got := drain(r, 4); len(got) != 0 {
		t.Fatalf("popped %v before due", got)
	}
	if got := drain(r, 5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("at 5 popped %v, want [2]", got)
	}
	if c, ok := r.NextCycle(); !ok || c != 10 {
		t.Fatalf("NextCycle after pop = %d,%v, want 10", c, ok)
	}
	// Within a cycle the bucket is a stack: last scheduled, first popped.
	if got := drain(r, 10); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("at 10 popped %v, want [3 1]", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
}

func TestRingPastClamped(t *testing.T) {
	r := NewRing(64)
	// Advance the window, then schedule behind it: the event must
	// still pop, at the present.
	r.Schedule(100, 1)
	if got := drain(r, 99); len(got) != 0 {
		t.Fatalf("popped %v early", got)
	}
	r.Schedule(3, 2) // far in the past: clamps to the window base
	if c, ok := r.NextCycle(); !ok || c > 100 {
		t.Fatalf("NextCycle = %d,%v, want <= 100", c, ok)
	}
	got := drain(r, 100)
	if len(got) != 2 {
		t.Fatalf("popped %v, want both events", got)
	}
}

func TestRingFarOverflow(t *testing.T) {
	r := NewRing(64) // span rounds to 64: cycle 1000 overflows to the far heap
	r.Schedule(1000, 1)
	r.Schedule(2, 2)
	r.Schedule(5000, 3)
	if c, ok := r.NextCycle(); !ok || c != 2 {
		t.Fatalf("NextCycle = %d,%v, want 2", c, ok)
	}
	if got := drain(r, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("at 2 popped %v, want [2]", got)
	}
	if c, ok := r.NextCycle(); !ok || c != 1000 {
		t.Fatalf("NextCycle = %d,%v, want 1000", c, ok)
	}
	if got := drain(r, 4999); len(got) != 1 || got[0] != 1 {
		t.Fatalf("at 4999 popped %v, want [1]", got)
	}
	if got := drain(r, 5000); len(got) != 1 || got[0] != 3 {
		t.Fatalf("at 5000 popped %v, want [3]", got)
	}
}

// TestRingDifferential drives random schedule/pop traffic through the
// ring and a flat reference model: near-future events, far ones that
// overflow to the heap, single pops interleaved with schedules (so a
// bucket is refilled while half drained and freed nodes are reused),
// and clocks that lap the 128-cycle span many times over. Every pop
// must hand back a due event the model still holds, a refusal means
// the model holds none, and NextCycle and Len stay exact. (The ring
// promises no order across cycles; TestRingBasic pins the LIFO order
// within one.)
func TestRingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := NewRing(128)
		ref := map[uint64]int64{} // payload -> cycle
		now := int64(0)
		var data uint64
		check := func() {
			t.Helper()
			wantNext, any := int64(0), false
			for _, c := range ref {
				if !any || c < wantNext {
					wantNext, any = c, true
				}
			}
			if c, ok := r.NextCycle(); ok != any || (ok && c != wantNext) {
				t.Fatalf("trial %d now %d: NextCycle = %d,%v, want %d,%v", trial, now, c, ok, wantNext, any)
			}
			if r.Len() != len(ref) {
				t.Fatalf("trial %d now %d: Len = %d, want %d", trial, now, r.Len(), len(ref))
			}
		}
		pop := func() bool {
			t.Helper()
			d, ok := r.PopUpTo(now)
			if !ok {
				for d, c := range ref {
					if c <= now {
						t.Fatalf("trial %d now %d: nothing popped, payload %d due at %d", trial, now, d, c)
					}
				}
				return false
			}
			if c, held := ref[d]; !held || c > now {
				t.Fatalf("trial %d now %d: popped payload %d (held %v, cycle %d)", trial, now, d, held, c)
			}
			delete(ref, d)
			return true
		}
		for op := 0; op < 600; op++ {
			switch k := rng.Intn(6); {
			case k < 3:
				// Mostly near-future, sometimes far beyond the span.
				d := int64(rng.Intn(120)) + 1
				if rng.Intn(10) == 0 {
					d += int64(rng.Intn(4000))
				}
				data++
				r.Schedule(now+d, data)
				ref[data] = now + d
			case k == 3:
				pop() // one event, leaving the rest of the cycle resident
			default:
				now += int64(rng.Intn(200)) + 1
				if k == 4 {
					for pop() {
					}
				}
			}
			check()
		}
	}
}

// TestRingSteadyStateDoesNotAllocate holds the ring to its reason for
// being a slab: once it has seen its high-water mark, scheduling and
// popping — bucket chains, far overflow, wrap-around — allocate nothing.
func TestRingSteadyStateDoesNotAllocate(t *testing.T) {
	r := NewRing(64)
	now := int64(0)
	round := func() {
		for i := int64(1); i <= 48; i++ {
			r.Schedule(now+1+i%7, uint64(i)) // seven buckets, chains of six or seven
		}
		r.Schedule(now+500, 99) // beyond the span: the overflow heap
		now += 37               // not a divisor of the span: buckets rotate
		for {
			if _, ok := r.PopUpTo(now); !ok {
				break
			}
		}
	}
	for i := 0; i < 32; i++ {
		round() // warm: the slab and the heap reach their working size
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state Schedule/PopUpTo allocates %.1f times per round, want 0", n)
	}
}
