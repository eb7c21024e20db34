package experiments

import (
	"strings"
	"testing"

	"repro/internal/dram"
)

func TestPFSweepShape(t *testing.T) {
	r := mshrRunner() // test-scale gsmencode + motionsearch
	tab := PFSweep(r)
	if want := len(PFBenches) * len(PFProfiles); len(tab.Cells) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Cells), want)
	}
	for i, row := range tab.Cells {
		w := tab.Rows[i]
		name := w.Bench + "/" + profName(w.Prof)
		if len(row) < len(PFConfigs) {
			t.Fatalf("%s: per-config columns missing", name)
		}
		for j, c := range PFConfigs {
			res := row[j].Sim
			if res.Core.Cycles <= 0 {
				t.Errorf("%s/pf%dd%d: cycles %d", name, c.Streams, c.Degree, res.Core.Cycles)
			}
			if c.Streams == 0 && res.PF.Issued != 0 {
				t.Errorf("%s: prefetch-off column issued %d prefetches", name, res.PF.Issued)
			}
		}
		// The off column is the equivalence anchor: it must match the
		// plain (no pf segment) configuration of the same pipeline.
		plain := r.cell(bestKey(w.Bench, sdramSpec("line", "frfcfs", w.Prof, dram.Knobs{MSHRs: PFMSHRs})))
		if row[0].Sim != plain {
			t.Errorf("%s: off column %q is not the plain mshr pipeline's memo entry %q",
				name, row[0].Sim.Key.DRAM, plain.Key.DRAM)
		}
	}
	out := RenderPFSweep(tab)
	if !strings.Contains(out, "Stream-prefetch sweep") || !strings.Contains(out, "motionsearch") {
		t.Error("render missing header or benchmark rows")
	}
}

// TestPFSweepPrefetchesOnStreamingKernel: at test scale the sequential
// gsmencode miss stream must actually trigger prefetches in at least
// one configuration — the sweep is not allowed to be a table of zeros.
func TestPFSweepPrefetchesOnStreamingKernel(t *testing.T) {
	issued := uint64(0)
	for _, row := range PFSweep(mshrRunner()).Cells {
		for _, c := range row {
			issued += c.Sim.PF.Issued
		}
	}
	if issued == 0 {
		t.Error("no configuration issued a single prefetch on the streaming kernels")
	}
}
