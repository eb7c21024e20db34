package dram

import (
	"math/rand"
	"slices"
	"testing"
)

// pickOf folds a window through choice the way scheduleReads does; a nil
// entry is a read the builder excluded.
func pickOf(window []*candidate) int {
	var p choice
	for i, c := range window {
		if c != nil {
			p.offer(i, c)
		}
	}
	return p.at
}

// TestCandidateOrder pins the pick's key without building a controller:
// the classic demand-aware order, the QoS order, and what breaks ties.
func TestCandidateOrder(t *testing.T) {
	demandHit := &candidate{}
	demand := &candidate{miss: true}
	specHit := &candidate{spec: true} // latched: competes only as an under-cap row hit
	at := func(ready int64, load int) *candidate { return &candidate{ready: ready, load: load} }
	over := func(c candidate) *candidate { c.over = true; return &c }
	for _, tc := range []struct {
		name   string
		window []*candidate
		want   int
	}{
		{"demand hit before older demand", []*candidate{demand, demandHit}, 1},
		{"demand before older speculative hit", []*candidate{specHit, demand}, 1},
		{"demand hit before older speculative hit", []*candidate{specHit, demand, demandHit}, 2},
		{"speculative hit when no demand is left", []*candidate{nil, specHit}, 1},
		{"unlatched speculation is a plain read: oldest hit", []*candidate{demand, demandHit, demandHit}, 1},
		{"no hit: arrival order", []*candidate{demand, demand, demand}, 0},
		{"over-credit yields to a later, slower, busier read", []*candidate{over(*at(10, 0)), at(90, 3)}, 1},
		{"over-credit yields even to speculation", []*candidate{over(*at(10, 0)), {spec: true, ready: 90}}, 1},
		{"all over credit: the rest of the key decides", []*candidate{over(*at(50, 0)), over(*at(20, 0))}, 1},
		{"demand before speculation under QoS", []*candidate{{spec: true, ready: 10}, at(90, 0)}, 1},
		{"readiness before load", []*candidate{at(50, 0), at(20, 7)}, 1},
		{"load breaks a readiness tie", []*candidate{at(20, 3), at(20, 1)}, 1},
		{"arrival breaks a full tie", []*candidate{at(20, 1), at(20, 1), at(20, 1)}, 0},
		{"everything excluded: fall back to the oldest", []*candidate{nil, nil, nil}, 0},
		{"empty window", nil, 0},
	} {
		if got := pickOf(tc.window); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}

	// before is a strict order on the key: irreflexive (a tie keeps the
	// older read) and asymmetric.
	all := []candidate{*demandHit, *demand, *specHit, *at(5, 0), *at(5, 2), *over(*at(1, 0))}
	for _, a := range all {
		if a.before(&a) {
			t.Errorf("%+v comes before itself", a)
		}
		for _, b := range all {
			if a != b && a.before(&b) == b.before(&a) {
				t.Errorf("%+v and %+v: before is not asymmetric", a, b)
			}
		}
	}
}

// TestDoneSetMatchesHandRolledLoops: prune, live and popEarliest against
// the loops admitRead, pfUnderCap, admitPrefetch, tenLive and pruneTenant
// each spelled out before the set type, on random completion lists.
func TestDoneSetMatchesHandRolledLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20020918))
	for round := 0; round < 2000; round++ {
		list := make([]int64, rng.Intn(12))
		for i := range list {
			list[i] = int64(rng.Intn(20)) // small range: duplicates are common
		}
		at := int64(rng.Intn(22) - 1)

		wantLive := 0
		var wantPruned []int64
		for _, done := range list {
			if done > at {
				wantLive++
				wantPruned = append(wantPruned, done)
			}
		}
		if got := doneSet(list).live(at); got != wantLive {
			t.Fatalf("live(%d) of %v = %d, want %d", at, list, got, wantLive)
		}
		q := doneSet(slices.Clone(list))
		q.prune(at)
		if !slices.Equal(q, wantPruned) {
			t.Fatalf("prune(%d) of %v = %v, want %v", at, list, q, wantPruned)
		}

		if len(list) == 0 {
			continue
		}
		earliest := 0
		for i := 1; i < len(list); i++ {
			if list[i] < list[earliest] {
				earliest = i
			}
		}
		wantRest := append(slices.Clone(list[:earliest]), list[earliest+1:]...)
		q = doneSet(slices.Clone(list))
		if got := q.popEarliest(); got != list[earliest] || !slices.Equal(q, wantRest) {
			t.Fatalf("popEarliest of %v = %d leaving %v, want %d leaving %v",
				list, got, q, list[earliest], wantRest)
		}
	}
}
