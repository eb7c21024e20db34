package experiments

import (
	"strings"
	"testing"
)

func TestVASweepShape(t *testing.T) {
	r := mshrRunner() // test-scale gsmencode + motionsearch
	tab := VASweep(r)
	if want := len(IFMixes) * len(VAPolicies); len(tab.Cells) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Cells), want)
	}
	for i, row := range tab.Cells {
		w, c := tab.Rows[i], row[0]
		name := strings.TrimSpace(w.Label)
		n := len(w.Mix)
		if len(c.Solo) != n || len(c.Sim.Cycles) != n {
			t.Fatalf("%s: per-tenant columns missing", name)
		}
		if len(c.Sim.Shards) != n {
			t.Fatalf("%s: backend stat shards missing", name)
		}
		for j := 0; j < n; j++ {
			if c.Solo[j] <= 0 {
				t.Errorf("%s tenant %d: solo cycles %d", name, j, c.Solo[j])
			}
			// Contending for the shared pool, channels and rows can never
			// beat running alone under the same placement policy.
			if c.Sim.Cycles[j] < c.Solo[j] {
				t.Errorf("%s tenant %d: shared run faster than solo (%d vs %d)",
					name, j, c.Sim.Cycles[j], c.Solo[j])
			}
			if c.Sim.Shards[j].Reads == 0 {
				t.Errorf("%s tenant %d: shard saw no reads", name, j)
			}
		}
		sl := slowdowns(c.Sim.Cycles, c.Solo)
		if j := jain(sl); j <= 0 || j > 1.0000001 {
			t.Errorf("%s: Jain index %f out of (0,1]", name, j)
		}
	}
	// The matrix must actually discriminate: some mix must time
	// differently across placement policies, or the allocator is not
	// reaching the controller.
	differs := false
	for i := 0; i+len(VAPolicies) <= len(tab.Cells); i += len(VAPolicies) {
		base := tab.Cells[i][0].Sim // first-fit cell of this mix
		for _, other := range tab.Cells[i+1 : i+len(VAPolicies)] {
			for j := range base.Cycles {
				if base.Cycles[j] != other[0].Sim.Cycles[j] {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Error("placement policy never changed any tenant's cycles")
	}
	out := RenderVASweep(tab)
	for _, want := range []string{"Placement sweep", "max", "jain", "row%", "(first-fit)", "(color)", "(colo)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
