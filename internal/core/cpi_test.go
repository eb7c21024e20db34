package core

import (
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// The CPI stack's two hard invariants, checked over the full golden
// matrix (every bench × ISA × backend spec the pinned table crosses):
//
//  1. Conservation: the buckets sum to the run's cycle count exactly —
//     every cycle is charged to exactly one stall reason, none twice,
//     none dropped. Asserted through the registry (sum of the
//     core.cpi.* counters against the core.cycles gauge), so the test
//     doubles as proof the stack registers completely.
//  2. Engine identity: the step and wheel engines produce bit-identical
//     stacks. The wheel bulk-charges skip windows off frozen
//     predicates; any predicate that could flip mid-window would show
//     up here as a diverged bucket.

// measureCPIEngine runs the golden matrix under one engine and returns
// key → (cycles, stack), asserting conservation on every row via the
// registered names.
func measureCPIEngine(t *testing.T, mode engine.Mode) map[string]CPIStack {
	t.Helper()
	variants := []struct {
		v    kernels.Variant
		kind MemKind
	}{
		{kernels.MOM3D, MemVectorCache3D},
		{kernels.MOM, MemVectorCache},
		{kernels.MMX, MemMultiBanked},
	}
	out := map[string]CPIStack{}
	for _, bm := range equivBenches() {
		for _, vk := range variants {
			tr := &trace.Trace{}
			bm.Run(vk.v, tr)
			for _, spec := range goldenSpecs {
				backend, knobs, err := dram.ParseSpecFull(spec, 100)
				if err != nil {
					t.Fatalf("spec %q: %v", spec, err)
				}
				cfg := MOMCore()
				if vk.v == kernels.MMX {
					cfg = MMXCore()
				}
				tim := vmem.Timing{L2Latency: 20, MemLatency: 100,
					Backend: backend, MSHRs: knobs.MSHRs}
				ms := NewMemSystem(vk.kind, tim, cfg.Lanes, vk.v == kernels.MMX)
				st := simulateMode(cfg, ms, tr.Insts, mode)
				key := goldenKey(bm.Name, vk.v, spec)

				if got, want := st.CPI.Sum(), uint64(st.Cycles); got != want {
					t.Errorf("%s [%v]: CPI stack sums to %d, run took %d cycles (diff %+d)",
						key, mode, got, want, int64(got)-int64(want))
				}
				// The same invariant through the registry: the stack's
				// counters are the only core.cpi.* names, and they must
				// resolve to the live fields bit for bit.
				reg := stats.NewRegistry()
				st.Register(reg)
				snap := reg.Snapshot()
				var sum uint64
				var buckets int
				for name, v := range snap.Counters {
					if strings.HasPrefix(name, "core.cpi.") {
						sum += v
						buckets++
					}
				}
				if buckets == 0 {
					t.Fatalf("%s [%v]: no core.cpi.* counters registered", key, mode)
				}
				if sum != uint64(snap.Gauges["core.cycles"]) {
					t.Errorf("%s [%v]: registered core.cpi.* sum %d != core.cycles %d",
						key, mode, sum, snap.Gauges["core.cycles"])
				}
				out[key] = st.CPI
			}
		}
	}
	return out
}

func TestCPIConservationAndEngineIdentity(t *testing.T) {
	step := measureCPIEngine(t, engine.Step)
	wheel := measureCPIEngine(t, engine.Wheel)
	if len(step) != len(wheel) {
		t.Fatalf("engines measured different matrices: %d vs %d rows", len(step), len(wheel))
	}
	for key, s := range step {
		w, ok := wheel[key]
		if !ok {
			t.Errorf("%s: missing from the wheel run", key)
			continue
		}
		if s != w {
			t.Errorf("%s: CPI stacks diverged across engines:\n  step  %+v\n  wheel %+v", key, s, w)
		}
	}
}

// TestCPIBucketsPlausible guards against a degenerate stack that is
// conserved but vacuous (everything in one bucket): a memory-bound
// kernel behind the blocking flat backend must show main-memory wait,
// and the non-blocking MSHR pipeline must show commit progress.
func TestCPIBucketsPlausible(t *testing.T) {
	tr := &trace.Trace{}
	MPEG2Dec().Run(kernels.MOM3D, tr)

	blocking := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, "fixed", 0)
	if blocking.CPI.DRAMWait == 0 {
		t.Errorf("blocking flat backend: DRAMWait bucket empty: %+v", blocking.CPI)
	}
	if blocking.CPI.Busy == 0 {
		t.Errorf("blocking flat backend: Busy bucket empty: %+v", blocking.CPI)
	}

	mshr := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, "sdram/line/frfcfs", 8)
	if mshr.CPI.Busy == 0 {
		t.Errorf("mshr8 pipeline: Busy bucket empty: %+v", mshr.CPI)
	}
	if mshr.CPI.DRAMWait == 0 {
		t.Errorf("mshr8 pipeline: DRAMWait bucket empty: %+v", mshr.CPI)
	}
}
