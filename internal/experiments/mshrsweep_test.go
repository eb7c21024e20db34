package experiments

import (
	"strings"
	"testing"

	"repro/internal/kernels"
)

// mshrRunner registers test-scale versions of the sweep's two
// streaming kernels under their canonical names, so MSHRSweep never
// falls back to the full-size registry in a unit test.
func mshrRunner() *Runner {
	return NewRunnerWith([]kernels.Benchmark{
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	})
}

func TestMSHRSweepShape(t *testing.T) {
	r := mshrRunner()
	tab := MSHRSweep(r)
	if want := len(MSHRBenches) * len(MSHRProfiles); len(tab.Cells) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Cells), want)
	}
	for i, row := range tab.Cells {
		name := tab.Rows[i].Bench + "/" + profName(tab.Rows[i].Prof)
		// Column 0 is the blocking path, then one per MSHRCounts entry.
		if len(row) < 1+len(MSHRCounts) {
			t.Fatalf("%s: per-count columns missing", name)
		}
		block := row[0].Sim.Core.Cycles
		if block <= 0 {
			t.Errorf("%s: blocking cycles %d", name, block)
		}
		for j, n := range MSHRCounts {
			if c := row[1+j].Sim.Core.Cycles; c <= 0 {
				t.Errorf("%s/mshr%d: cycles %d", name, n, c)
			}
		}
		// The detail line reads cells the grid already ran: the largest
		// file's and the blocking machine's.
		if d := row[1+len(MSHRCounts):]; d[0].Sim != row[len(MSHRCounts)].Sim || d[1].Sim != row[0].Sim {
			t.Errorf("%s: the detail columns do not read the grid's cells", name)
		}
	}
	out := RenderMSHRSweep(tab)
	if !strings.Contains(out, "MSHR sweep") || !strings.Contains(out, "motionsearch") {
		t.Error("render missing header or benchmark rows")
	}
}

// TestMSHRSweepSharesBlockingCell: the detail line's blocking-bandwidth
// and largest-file columns are machines the grid already simulated, so
// the sweep's 4 rows cost 4 cells each — block, mshr4, mshr8, mshr16.
func TestMSHRSweepSharesBlockingCell(t *testing.T) {
	r := mshrRunner()
	calls := 0
	r.Progress = func(SimKey) { calls++ }
	MSHRSweep(r)
	if want := len(MSHRBenches) * len(MSHRProfiles) * (1 + len(MSHRCounts)); calls != want {
		t.Errorf("MSHRSweep simulated %d cells, want %d", calls, want)
	}
}

// TestRunnerResolvesExtendedBenchmarks: a bench outside the paper's
// five resolves on demand without joining the presentation order.
func TestRunnerResolvesExtendedBenchmarks(t *testing.T) {
	r := mshrRunner()
	for _, b := range r.Benchmarks() {
		if b != "gsmencode" && b != "motionsearch" {
			t.Fatalf("unexpected benchmark %q in order", b)
		}
	}
	res := r.cell(bestKey("motionsearch", "sdram/line/frfcfs/mshr8"))
	if res.Core.Cycles <= 0 {
		t.Fatal("extended benchmark did not simulate")
	}
	if res.MSHR.Allocs == 0 {
		t.Error("mshr8 spec did not reach the MSHR file")
	}
}
