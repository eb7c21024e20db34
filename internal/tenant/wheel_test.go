package tenant_test

// Wheel-vs-step equivalence for the multi-tenant front end: the wheel
// group — which steps a tenant only at its own wake-ups, so that tenants'
// clocks differ for most of a run — must reproduce the per-cycle group's
// every counter bit for bit: the whole registry snapshot (per-tenant
// core, cache, vmem and vm shards, the shared L2, MSHR file, prefetcher
// and backend, the per-tenant backend shards) and each tenant's
// core.Stats — in fewer Step calls.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
)

// runGroup runs traces as one group on a fresh machine built from spec,
// registered before the run (as momsim wires it, so a sampler can read
// the registry mid-flight) and sampled every `every` cycles (0 = not).
func runGroup(t testing.TB, spec string, traces [][]isa.Inst, mode engine.Mode, every int64) (*tenant.Group, *stats.Registry, *stats.Sampler) {
	t.Helper()
	cfg := core.MOMCore()
	tim, vmsys := machineFor(t, spec, len(traces))
	g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Tim: tim,
		Lanes: cfg.Lanes, Traces: traces, Engine: mode, VM: vmsys})
	reg := stats.NewRegistry()
	g.Register(reg)
	var sampler *stats.Sampler
	if every > 0 {
		sampler = stats.NewSampler(reg, every)
	}
	g.RunSampled(sampler)
	return g, reg, sampler
}

// requireSameRun compares a per-cycle run of a machine with a wheel run
// of it: each tenant's core.Stats, the whole registry snapshot, and the
// step counts — the per-cycle engine makes one Step per tenant-cycle,
// the wheel no more, of the same tenant-cycles.
func requireSameRun(t testing.TB, key string, step, wheel *tenant.Group, stepSnap, wheelSnap stats.Snapshot) {
	t.Helper()
	for i := 0; i < step.N(); i++ {
		if !reflect.DeepEqual(*step.Stats(i), *wheel.Stats(i)) {
			t.Errorf("%s tenant %d: core stats diverged\n  step  %+v\n  wheel %+v", key, i, *step.Stats(i), *wheel.Stats(i))
		}
	}
	if diff := snapshotDiff(stepSnap, wheelSnap); diff != "" {
		t.Errorf("%s: registry snapshot diverged (step vs wheel):\n%s", key, diff)
	}
	if step.Steps() != step.TenantCycles() || wheel.TenantCycles() != step.TenantCycles() || wheel.Steps() > wheel.TenantCycles() {
		t.Errorf("%s: %d steps of %d tenant-cycles under step, %d of %d under the wheel",
			key, step.Steps(), step.TenantCycles(), wheel.Steps(), wheel.TenantCycles())
	}
}

// requireWheelMatchesStep runs the mix under both engines and returns
// the (common) snapshot. On these mixes the wheel must make strictly
// fewer Steps than lockstep: one that steps as often is equivalent for
// the wrong reason.
func requireWheelMatchesStep(t *testing.T, name, spec string, traces [][]isa.Inst) stats.Snapshot {
	t.Helper()
	step, stepReg, _ := runGroup(t, spec, traces, engine.Step, 0)
	wheel, wheelReg, _ := runGroup(t, spec, traces, engine.Wheel, 0)
	key := name + "/" + spec
	snap := stepReg.Snapshot()
	requireSameRun(t, key, step, wheel, snap, wheelReg.Snapshot())
	if wheel.Steps() >= wheel.TenantCycles() {
		t.Errorf("%s: the wheel made %d steps of %d tenant-cycles: it skipped nothing", key, wheel.Steps(), wheel.TenantCycles())
	}
	return snap
}

func TestWheelMatchesStepTenants(t *testing.T) {
	ms := traceOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D)
	gsm := traceOf(kernels.GSMEncode(kernels.SmallGSMEncConfig()), kernels.MOM3D)
	jpg := traceOf(kernels.JPEGEncode(kernels.SmallJPEGEncConfig()), kernels.MOM3D)
	mpg := traceOf(kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()), kernels.MOM3D)

	cases := []struct {
		name   string
		traces [][]isa.Inst
		spec   string
	}{
		{"2x-motionsearch", [][]isa.Inst{ms, ms}, "sdram/line/frfcfs"},
		{"mixed-2", [][]isa.Inst{ms, gsm}, "sdram/line/frfcfs/mshr8"},
		{"mixed-3-pf", [][]isa.Inst{ms, gsm, jpg}, "sdram/line/frfcfs/mshr8/pf4"},
		{"qos-2", [][]isa.Inst{ms, gsm}, "sdram/line/frfcfs/tn2/qos"},
		{"hbm-2", [][]isa.Inst{ms, gsm}, "sdram/line/frfcfs/hbm"},
		// The first tenant retires after ~2K cycles, the others after
		// ~15K: most rounds run past a retired seat.
		{"early-finisher", [][]isa.Inst{ms, mpg, jpg}, "sdram/line/frfcfs/mshr8/tn3/qos"},
	}
	for _, tc := range cases {
		requireWheelMatchesStep(t, tc.name, tc.spec, tc.traces)
	}
	if testing.Short() {
		return
	}
	// QoS over the non-blocking file at full size: the one row on which
	// sleepers' bulk CPI charges drain QoS-yield budgets other tenants'
	// flushes stamp (see TestSleepersAreCaughtUpAtEveryFlush).
	bm, ok := kernels.ByName("motionsearch")
	if !ok {
		t.Fatal("motionsearch missing from the suite")
	}
	full := traceOf(bm, kernels.MOM3D)
	snap := requireWheelMatchesStep(t, "4x-full-qos-mshr", "sdram/bank/frfcfs/mshr8/tn4/qos", [][]isa.Inst{full, full, full, full})
	var yield uint64
	for i := 0; i < 4; i++ {
		yield += snap.Counters[fmt.Sprintf("tenant.%d.core.cpi.qos_yield", i)]
	}
	if yield == 0 {
		t.Error("4x-full-qos-mshr: no cycle was charged to core.cpi.qos_yield: the row pins nothing about QoS budgets")
	}
	// The machines momsim runs on the wheel, from a solo run to four
	// tenants with QoS over the MSHR file or with page coloring.
	for _, tc := range []struct {
		name, spec string
		n          int
	}{
		{"full-solo", "sdram/line/frfcfs", 1},
		{"2x-full", "sdram/line/frfcfs/tn2", 2},
		{"4x-full-mshr-qos", "sdram/line/frfcfs/mshr8/tn4/qos", 4},
		{"4x-full-vacolor", "sdram/bank/frfcfs/tn4/vacolor", 4},
	} {
		requireWheelMatchesStep(t, tc.name, tc.spec, slices.Repeat([][]isa.Inst{full}, tc.n))
	}
}

// TestWheelMatchesStepTenantsVA extends the equivalence to real address
// spaces: under the wheel a tenant's page-table walk completes lazily at
// its next poll, racing the other tenants' wake-ups and the shared MSHR
// fill wake-ups, and the shared L2 TLB orders insertions across tenants
// — every vm.tlb/vm.walk counter included.
func TestWheelMatchesStepTenantsVA(t *testing.T) {
	ms := traceOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D)
	gsm := traceOf(kernels.GSMEncode(kernels.SmallGSMEncConfig()), kernels.MOM3D)
	for _, tc := range []struct {
		name   string
		traces [][]isa.Inst
		spec   string
	}{
		{"va-2", [][]isa.Inst{ms, gsm}, "sdram/bank/frfcfs/tn2/va"},
		{"vacolor-2-mshr", [][]isa.Inst{ms, gsm}, "sdram/bank/frfcfs/tn2/mshr8/vacolor"},
		{"vacolo-2-qos", [][]isa.Inst{ms, gsm}, "sdram/bank/frfcfs/tn2/qos/vacolo"},
		{"va-3-pf", [][]isa.Inst{ms, ms, gsm}, "sdram/bank/frfcfs/tn3/mshr8/pf4/vacolor"},
	} {
		requireWheelMatchesStep(t, tc.name, tc.spec, tc.traces)
	}
}

// TestSampledRowsMatchStepAtTheirCycle: under the wheel the tenants
// sleep through most sampling boundaries, and the group clock must still
// stop on every one of them and hold there what per-cycle lockstep
// holds — every counter and gauge, the sleepers' CPI stacks included. So
// the two engines, sampled at one interval, record the same rows; and
// sampling leaves the final snapshot where an unsampled run leaves it.
func TestSampledRowsMatchStepAtTheirCycle(t *testing.T) {
	traces := [][]isa.Inst{
		traceOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D),
		traceOf(kernels.GSMEncode(kernels.SmallGSMEncConfig()), kernels.MOM3D),
		traceOf(kernels.JPEGDecode(kernels.SmallJPEGDecConfig()), kernels.MOM3D),
	}
	const spec, every = "sdram/line/frfcfs/mshr8/pf4/tn3/qos", 100
	_, _, want := runGroup(t, spec, traces, engine.Step, every)
	_, reg, got := runGroup(t, spec, traces, engine.Wheel, every)
	if len(want.Rows()) == 0 || !reflect.DeepEqual(want.Rows(), got.Rows()) {
		t.Fatalf("the wheel recorded %d rows, the per-cycle engine %d, or they differ", len(got.Rows()), len(want.Rows()))
	}
	_, plain, _ := runGroup(t, spec, traces, engine.Wheel, 0)
	if diff := snapshotDiff(plain.Snapshot(), reg.Snapshot()); diff != "" {
		t.Errorf("sampling moved the final snapshot:\n%s", diff)
	}
}
