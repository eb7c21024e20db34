package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/stats"
)

// latDistRunner keeps the distribution test fast: motionsearch is the
// only benchmark -latdist simulates.
func latDistRunner() *Runner {
	return NewRunnerWith([]kernels.Benchmark{
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	})
}

func TestLatDistShape(t *testing.T) {
	rows := LatDist(latDistRunner())
	if len(rows) != len(LatDistProfiles) {
		t.Fatalf("rows = %d, want %d", len(rows), len(LatDistProfiles))
	}
	for i, r := range rows {
		if r.Profile != LatDistProfiles[i] {
			t.Errorf("row %d profile = %q, want %q", i, r.Profile, LatDistProfiles[i])
		}
		if r.Wait.Count == 0 || r.Service.Count == 0 || r.Fill.Count == 0 {
			t.Errorf("%s: empty distribution (wait %d, service %d, fill %d) — the streaming kernel must miss",
				r.Profile, r.Wait.Count, r.Service.Count, r.Fill.Count)
		}
		// Translation is on in the spec, so the walk distribution must be
		// live too: a streaming working set cannot fit the L2 TLB.
		if r.Walk.Count == 0 {
			t.Errorf("%s: walk-latency distribution is empty with /va in the spec", r.Profile)
		}
		// Wait and service see the same reads; fills cover at least the
		// demand misses (prefetch fills would only add to them).
		if r.Wait.Count != r.Service.Count {
			t.Errorf("%s: wait n=%d != service n=%d", r.Profile, r.Wait.Count, r.Service.Count)
		}
		// The end-to-end fill time includes the L2 round trip, so its
		// mean cannot undercut the controller's service time.
		if r.Fill.Mean() < r.Service.Mean() {
			t.Errorf("%s: fill mean %.1f < service mean %.1f", r.Profile, r.Fill.Mean(), r.Service.Mean())
		}
	}
	// The die-stacked profile's banks are faster than the commodity
	// DIMM's; the service distribution must reflect that.
	if rows[1].Service.Mean() >= rows[0].Service.Mean() {
		t.Errorf("hbm service mean %.1f >= ddr %.1f", rows[1].Service.Mean(), rows[0].Service.Mean())
	}
}

// TestLatDistMatchesRegistry: the distributions LatDist reads from a
// result's copies are the ones the registry exports under their names —
// for each profile, the same cell built by machine, run and registered
// by hand.
func TestLatDistMatchesRegistry(t *testing.T) {
	r := latDistRunner()
	for _, row := range LatDist(r) {
		g := r.machine(bestKey(LatDistBench, row.Spec))
		g.Run()
		reg := stats.NewRegistry()
		g.Register(reg)
		hists := reg.Snapshot().Hists
		for name, got := range map[string]stats.HistSnapshot{
			"dram.read_wait": row.Wait, "dram.read_service": row.Service,
			"vmem.mshr.fill": row.Fill, "vm.walk.latency": row.Walk,
		} {
			if want := hists[name]; want.Count == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: LatDist read %v, the registry holds %v", row.Profile, name, got, want)
			}
		}
	}
}

func TestLatDistRender(t *testing.T) {
	out := RenderLatDist(LatDist(latDistRunner()))
	for _, want := range []string{"read-latency distributions", "queue-wait", "service", "miss-to-fill", "tlb-walk", "ddr", "hbm"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 4 {
		t.Errorf("render has %d lines, want a table", lines)
	}
}
