package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestRPSweepShape(t *testing.T) {
	r := mshrRunner() // test-scale gsmencode + motionsearch
	tab := RPSweep(r)
	// Two traffic mixes per benchmark × profile.
	if want := len(RPBenches) * len(RPProfiles) * 2; len(tab.Cells) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Cells), want)
	}
	openIdx := slices.Index(RPPolicies, "open")
	if openIdx < 0 {
		t.Fatal("the sweep must include the static open policy (the PR 4 baseline)")
	}
	for i, row := range tab.Cells {
		w := tab.Rows[i]
		name := strings.Join(strings.Fields(w.Label), "/")
		if len(row) < len(RPPolicies) {
			t.Fatalf("%s: per-policy columns missing", name)
		}
		for j, p := range RPPolicies {
			if c := row[j].Sim.Core.Cycles; c <= 0 {
				t.Errorf("%s/rp%s: cycles %d", name, p, c)
			}
			// Demand-only rows carry no speculative traffic to defer.
			if d := row[j].Sim.DRAM.PrefetchDeferred; w.Knobs.PFStreams == 0 && d != 0 {
				t.Errorf("%s/rp%s: %d prefetches deferred without a prefetcher", name, p, d)
			}
		}
		// The open policy never closes a row early and never flips.
		if d := row[openIdx].Sim.DRAM; d.RowClosedEarly != 0 || d.PredictorFlips != 0 {
			t.Errorf("%s: rpopen closed %d rows early (%d flips)", name, d.RowClosedEarly, d.PredictorFlips)
		}
		// The rpopen point is the plain (no rp token) pipeline of the
		// row's traffic shape: same memo entry, not a second spelling.
		plain := r.cell(bestKey(w.Bench, sdramSpec("line", "frfcfs", w.Prof, w.Knobs)))
		if row[openIdx].Sim != plain {
			t.Errorf("%s: rpopen column is not the plain pipeline's memo entry (%q vs %q)",
				name, row[openIdx].Sim.Key.DRAM, plain.Key.DRAM)
		}
	}
	out := RenderRPSweep(tab)
	if !strings.Contains(out, "Row-policy sweep") || !strings.Contains(out, "motionsearch") ||
		!strings.Contains(out, "rphistory") {
		t.Error("render missing header, benchmark rows or policy columns")
	}
}

// TestRPSweepPoliciesDiverge: at test scale the policies must actually
// reach the controller — the static close policy closes rows on every
// kernel that touches DRAM, so the sweep is not allowed to be four
// copies of the same column.
func TestRPSweepPoliciesDiverge(t *testing.T) {
	closeIdx := slices.Index(RPPolicies, "close")
	if closeIdx < 0 {
		t.Fatal("the sweep must include the static close policy")
	}
	closed := uint64(0)
	for _, row := range RPSweep(mshrRunner()).Cells {
		closed += row[closeIdx].Sim.DRAM.RowClosedEarly
	}
	if closed == 0 {
		t.Error("no configuration closed a single row under the static close policy")
	}
}

// TestRPSweepSharesPFSweepCells: the rpopen column of every row is a
// machine PFSweep already simulated (same shape, default row policy),
// so after PFSweep's 20 cells RPSweep adds 16, not its full 24.
func TestRPSweepSharesPFSweepCells(t *testing.T) {
	r := mshrRunner()
	calls := 0
	r.Progress = func(SimKey) { calls++ }
	PFSweep(r)
	if calls != 20 {
		t.Fatalf("PFSweep simulated %d cells, want 20", calls)
	}
	RPSweep(r)
	if calls != 20+16 {
		t.Errorf("PFSweep then RPSweep simulated %d cells, want 20 + 16", calls)
	}
}
