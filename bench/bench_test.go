package main

import (
	"bytes"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// The tests run the benchmark's own code paths in-process over the
// scaled-down golden suite, so they stay inside the tier-1 budget.

func testManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func declared(ds []metricDecl) []string {
	var names []string
	for _, d := range ds {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func keys[V any](m map[string]V) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEmittedNamesAreTheDeclaredOnes holds the names the code emits to
// BENCHMARK.json, per workload, and the names themselves to the
// manifest's alphabet.
func TestEmittedNamesAreTheDeclaredOnes(t *testing.T) {
	m := testManifest(t)
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not have", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	names = append(names, declared(m.EndToEnd)...)
	names = append(names, declared(m.PerLayer)...)
	for _, name := range names {
		if !legal.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
	}

	// The end-to-end pass emits the same names whatever the workload.
	suite := experiments.GoldenSuite()
	rp, _ := workloadByName("rp-step")
	rep := measure(rp, suite, time.Now(), 1)
	if len(rep.Failures) > 0 {
		t.Errorf("rp-step: end-to-end pass failed: %v", rep.Failures)
	}
	got := keys(endToEndSamples([]childReport{rep}))
	if want := declared(m.EndToEnd); !equal(got, want) {
		t.Errorf("end-to-end metrics emitted %v, declared %v", got, want)
	}

	for _, w := range workloads {
		rep := traced(w, suite)
		if len(rep.Failures) > 0 {
			t.Errorf("%s: traced pass failed: %v", w.name, rep.Failures)
		}
		got := keys(rep.PerLayer)
		if want := declared(m.PerLayer); !equal(got, want) {
			t.Errorf("%s: per-layer metrics emitted and declared differ:\n emitted %v\ndeclared %v", w.name, got, want)
		}
		// The layers a workload exists to exercise must show up.
		for _, name := range map[string][]string{
			"paper-eval": {"trace.emit_s", "kernels.insts", "core.self_s", "experiments.paper_gap_pts"},
			"rp-step":    {"dram.submit_reqs", "vmem.mshr.allocs", "vmem.prefetch.issued", "engine.steps"},
			"tenant-mix": {"tenant.run_s", "vm.walk.walks", "tenant.jain", "dram.submit_s"},
		}[w.name] {
			if rep.PerLayer[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, rep.PerLayer[name])
			}
		}
	}
}

func equal(a, b []string) bool {
	return strings.Join(a, " ") == strings.Join(b, " ")
}

// TestWrappersDoNotPerturb runs probe cells with and without the timing
// wrappers under both engines: cycles and the whole registry snapshot
// must be identical, and the wrappers must have been on the path.
func TestWrappersDoNotPerturb(t *testing.T) {
	suite := experiments.GoldenSuite()
	for _, p := range []probe{dramProbes[1], tenantProbes[1]} {
		var tr trace.Trace
		for _, bm := range suite {
			if bm.Name == p.bench {
				bm.Run(p.variant, &tr)
			}
		}
		ref, err := runCell(p, tr.Insts, engine.Step, cellOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
			c, err := runCell(p, tr.Insts, mode, cellOpts{wrapped: true})
			if err != nil {
				t.Fatal(err)
			}
			if c.cycles != ref.cycles || !bytes.Equal(c.snapJSON, ref.snapJSON) {
				t.Errorf("%s: wrapped run under %v differs from the plain step run (cycles %d vs %d)",
					p.id(), mode, c.cycles, ref.cycles)
			}
			if c.unconserved != 0 {
				t.Errorf("%s: CPI buckets do not sum to cycles under %v", p.id(), mode)
			}
			if c.mt.issue.calls == 0 || c.mt.reqs == 0 || c.mt.violations != 0 {
				t.Errorf("%s: under %v the wrappers saw %d Issue calls, %d requests, %d contract breaches",
					p.id(), mode, c.mt.issue.calls, c.mt.reqs, c.mt.violations)
			}
			if c.mt.submitInIssue.calls+c.mt.submitFromCore.calls == 0 {
				t.Errorf("%s: no Submit reached the backend wrapper under %v", p.id(), mode)
			}
		}
	}
}

// TestSelfTime checks the span arithmetic on a hand-made tree: a
// Submit nested in Issue comes off vmem, one entered from the core's
// own poll comes off the core.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "probe", Calls: 1, BusyNs: 1000},
		{ID: 2, Parent: 1, Name: "core.simulate", Calls: 1, BusyNs: 800},
		{ID: 3, Parent: 2, Name: "vmem.issue", Calls: 10, BusyNs: 300},
		{ID: 4, Parent: 3, Name: "dram.submit", Calls: 4, BusyNs: 120},
		{ID: 5, Parent: 2, Name: "dram.submit", Calls: 2, BusyNs: 50},
	}
	for _, tc := range []struct {
		timer float64
		want  map[int]float64
	}{
		{0, map[int]float64{1: 200, 2: 450, 3: 180, 4: 120, 5: 50}},
		// With a 5 ns clock read: every span gives back one read per
		// call, and every child call costs its parent one read more.
		{5, map[int]float64{1: 1000 - 5 - (800 + 5), 2: 800 - 5 - (300 + 50) - (50 + 10), 3: 300 - 50 - (120 + 20), 4: 100, 5: 40}},
	} {
		got := selfNs(spans, tc.timer)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("timer %v ns: self time of span %d = %v, want %v", tc.timer, id, got[id], want)
			}
		}
	}
}

func TestRecorderFoldsCalls(t *testing.T) {
	var rc recorder
	rc.epoch = time.Now()
	var ct callTimer
	for i := 0; i < 3; i++ {
		ct.end(ct.begin())
	}
	parent := rc.single(0, "p", "core.simulate", rc.epoch, rc.epoch.Add(time.Millisecond))
	id := rc.fold(parent, "p", "vmem.issue", ct)
	if s := rc.spans[id-1]; s.Parent != parent || s.Calls != 3 || s.BusyNs != ct.ns || s.EndNs < s.StartNs {
		t.Errorf("folded span %+v does not carry the timer's 3 calls", s)
	}
	if rc.fold(parent, "p", "dram.submit", callTimer{}) != 0 {
		t.Error("a wrapper that was never entered must leave no span")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.07}
	higher := metricDecl{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.07}
	s := func(v ...float64) summary { return summarize("s", v, false) }
	for _, tc := range []struct {
		name string
		d    metricDecl
		a, b summary
		want string
	}{
		{"same", lower, s(1.00, 1.01, 0.99, 1.00), s(1.00, 1.02, 0.99, 1.01), "ok"},
		{"within the bound", lower, s(1.00, 1.01, 0.99, 1.00), s(1.05, 1.06, 1.04, 1.05), "ok"},
		{"beyond the bound", lower, s(1.00, 1.01, 0.99, 1.00), s(1.10, 1.11, 1.09, 1.10), "worse"},
		{"faster", lower, s(1.00, 1.01, 0.99, 1.00), s(0.50, 0.51, 0.49, 0.50), "ok"},
		{"noisy baseline", lower, s(0.80, 1.00, 1.20, 1.40), s(1.00, 1.01, 0.99, 1.00), "unresolved"},
		{"noisy but every sample better", lower, s(0.80, 1.00, 1.20, 1.40), s(0.50, 0.60, 0.70, 0.75), "ok"},
		{"noisy and beyond the bound", lower, s(0.80, 1.00, 1.20, 1.40), s(1.50, 1.60, 1.70, 1.80), "worse"},
		{"higher is better, dropped", higher, s(100, 101, 99, 100), s(90, 91, 89, 90), "worse"},
		{"higher is better, rose", higher, s(100, 101, 99, 100), s(120, 121, 119, 120), "ok"},
		{"missing side", lower, s(1, 1, 1), summary{}, "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// The quartiles are Python's statistics.quantiles(n=4): for 1..10
	// they are 2.75 and 8.25 around a median of 5.5.
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}

	m := &manifest{EndToEnd: []metricDecl{lower}}
	res := func(v ...float64) *result {
		return &result{Workloads: []workloadResult{{Name: "w", Attempted: 1, OutputDigest: "d",
			EndToEnd: map[string]summary{"wall_s": s(v...)}}}}
	}
	var out bytes.Buffer
	if compare(m, res(1.00, 1.01, 0.99), res(1.00, 1.01, 0.99), &out) {
		t.Errorf("identical sets compare as worse:\n%s", out.String())
	}
	out.Reset()
	if !compare(m, res(1.00, 1.01, 0.99), res(1.20, 1.21, 1.19), &out) || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20 %% slowdown against a 7 %% bound must compare as worse:\n%s", out.String())
	}
}

// TestPanicInACellIsCountedAndTheRunContinues is the failure
// accounting: a stage that panics is named and counted as one failed
// operation, and the stages after it still run.
func TestPanicInACellIsCountedAndTheRunContinues(t *testing.T) {
	w := workload{name: "t", engine: engine.Step, paperOnly: true, stages: []stage{
		{"boom", func(r *experiments.Runner, _ *iteration) func() string {
			experiments.Table1(r) // start cells, so that one is running
			panic("injected")
		}},
		paperStages[1], // table2
	}}
	it := runIteration(w, experiments.GoldenSuite())
	if len(it.Failures) != 1 || !strings.Contains(it.Failures[0], "injected") || !strings.Contains(it.Failures[0], "stage boom") {
		t.Fatalf("failures = %v, want the one injected panic, named", it.Failures)
	}
	if it.Cells == 0 || len(it.stages) != 1 || it.stages[0].name != "table2" {
		t.Errorf("after the panic: %d cells, stages run %v; want the run to continue with table2", it.Cells, it.stages)
	}
	rep := measure(w, experiments.GoldenSuite(), time.Now(), 1)
	if len(rep.Failures) != 2 || rep.Attempted <= len(rep.Failures) {
		t.Errorf("measure reported %d failures of %d operations, want 2 (warm-up and timed) of more", len(rep.Failures), rep.Attempted)
	}
}
