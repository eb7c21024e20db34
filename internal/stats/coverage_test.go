package stats_test

// The registration-coverage net: build the most fully-loaded memory
// system the simulator can configure (SDRAM backend, MSHR file, stream
// prefetcher, both cache levels), register everything, and reflect over
// every stat-bearing struct type. Any exported field without a
// registered name fails the test — so a new counter added to any Stats
// struct cannot ship unregistered, and the exporters (momsim
// -statsjson, momexp's BENCH_PR6.json, the golden table) stay complete
// by construction.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// registered reports whether snap holds name in any taxonomy.
func registered(snap stats.Snapshot, name string) bool {
	_, c := snap.Counters[name]
	_, g := snap.Gauges[name]
	_, h := snap.Hists[name]
	return c || g || h
}

// checkStructCoverage walks every exported field of typ and asserts its
// registered name exists in snap, mirroring AddStruct's kind dispatch:
// arrays expand to indexed names, *Histogram fields must appear in
// Hists, nested structs recurse under their snake-cased prefix (so the
// grouped counters of core.Stats.CPI are covered field by field), and
// everything else must be registered.
func checkStructCoverage(t *testing.T, snap stats.Snapshot, prefix string, typ reflect.Type) {
	t.Helper()
	histType := reflect.TypeOf((*stats.Histogram)(nil))
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "." + stats.SnakeCase(f.Name)
		switch {
		case f.Type.Kind() == reflect.Array:
			for j := 0; j < f.Type.Len(); j++ {
				if idx := fmt.Sprintf("%s.%d", name, j); !registered(snap, idx) {
					t.Errorf("%s.%s: indexed counter %q unregistered", typ, f.Name, idx)
				}
			}
		case f.Type == histType:
			if _, ok := snap.Hists[name]; !ok {
				t.Errorf("%s.%s: histogram %q unregistered", typ, f.Name, name)
			}
		case f.Type.Kind() == reflect.Struct:
			checkStructCoverage(t, snap, name, f.Type)
		default:
			if !registered(snap, name) {
				t.Errorf("%s.%s: %q unregistered — wire it into AddStruct or the Register seam",
					typ, f.Name, name)
			}
		}
	}
}

// loadedSystem builds a memory system that instantiates every optional
// subsystem, plus a core.Stats, and registers both.
func loadedSystem(t *testing.T) (*stats.Registry, *core.MemSystem) {
	t.Helper()
	backend, knobs, err := dram.ParseSpecFull("sdram/line/frfcfs/mshr8/pf4/va", 100)
	if err != nil {
		t.Fatal(err)
	}
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}
	vmsys, err := core.NewVM(knobs.VA, 1, backend)
	if err != nil {
		t.Fatal(err)
	}
	tim.VA = vmsys.Space(0)
	ms := core.NewMemSystem(core.MemVectorCache3D, tim, 4, false)
	reg := stats.NewRegistry()
	(&core.Stats{}).Register(reg)
	ms.Register(reg)
	return reg, ms
}

func TestRegistryCoversAllStats(t *testing.T) {
	reg, ms := loadedSystem(t)
	snap := reg.Snapshot()

	// The sanity preconditions: the loaded system really instantiated
	// the optional subsystems this test exists to cover.
	if ms.MSHR() == nil || ms.MSHR().Prefetcher() == nil || ms.DRAM() == nil || ms.Tim.VA == nil {
		t.Fatal("loaded system is missing a subsystem; the coverage below would be vacuous")
	}

	cases := []struct {
		prefix string
		typ    reflect.Type
	}{
		{"core", reflect.TypeOf(core.Stats{})},
		{"cache.l1", reflect.TypeOf(cache.Stats{})},
		{"cache.l2", reflect.TypeOf(cache.Stats{})},
		{"vmem", reflect.TypeOf(vmem.Stats{})},
		{"vmem.mshr", reflect.TypeOf(vmem.MSHRStats{})},
		{"vmem.prefetch", reflect.TypeOf(vmem.PrefetchStats{})},
		{"dram", reflect.TypeOf(dram.Stats{})},
		// The shared TLB/walk counters and the (single) space's private
		// counters share the vm.tlb/vm.walk prefixes; the field names
		// keep them disjoint.
		{"vm.tlb", reflect.TypeOf(vm.TLBStats{})},
		{"vm.tlb", reflect.TypeOf(vm.SpaceStats{})},
		{"vm.walk", reflect.TypeOf(vm.WalkStats{})},
	}
	for _, c := range cases {
		checkStructCoverage(t, snap, c.prefix, c.typ)
	}
}

// TestRegistryCoversMemSystemExtras pins the names the Register seam
// adds by hand, outside any struct walk.
func TestRegistryCoversMemSystemExtras(t *testing.T) {
	reg, _ := loadedSystem(t)
	snap := reg.Snapshot()
	for _, name := range []string{"vmem.scalar_l2_accesses"} {
		if !registered(snap, name) {
			t.Errorf("hand-registered name %q missing", name)
		}
	}
}

// loadedTenantSystem is loadedSystem's multi-requestor sibling: a
// 2-tenant group on the fully-loaded shared backend with QoS on, run to
// completion and registered.
func loadedTenantSystem(t *testing.T) *stats.Registry {
	t.Helper()
	backend, knobs, err := dram.ParseSpecFull("sdram/line/frfcfs/mshr8/pf4/tn2/qos/va", 100)
	if err != nil {
		t.Fatal(err)
	}
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}
	vmsys, err := core.NewVM(knobs.VA, 2, backend)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.MOMCore()
	tr := &trace.Trace{}
	kernels.GSMEncode(kernels.SmallGSMEncConfig()).Run(kernels.MOM3D, tr)
	g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D,
		Tim: tim, Lanes: cfg.Lanes, Traces: [][]isa.Inst{tr.Insts, tr.Insts}, VM: vmsys})
	g.Run()
	reg := stats.NewRegistry()
	g.Register(reg)
	return reg
}

// TestRegistryCoversTenantShards extends the coverage walk to the
// multi-tenant registration seam: the shared structures keep their
// classic names, every tenant's private shards appear under
// tenant.<i>.*, and every exported field of the backend's per-tenant
// shard is registered — so a counter added to dram.TenantStats cannot
// ship invisible to -statsjson.
func TestRegistryCoversTenantShards(t *testing.T) {
	snap := loadedTenantSystem(t).Snapshot()

	cases := []struct {
		prefix string
		typ    reflect.Type
	}{
		// Shared structures under the single-requestor names.
		{"cache.l2", reflect.TypeOf(cache.Stats{})},
		{"vmem.mshr", reflect.TypeOf(vmem.MSHRStats{})},
		{"vmem.prefetch", reflect.TypeOf(vmem.PrefetchStats{})},
		{"dram", reflect.TypeOf(dram.Stats{})},
		{"vm.tlb", reflect.TypeOf(vm.TLBStats{})},
		{"vm.walk", reflect.TypeOf(vm.WalkStats{})},
		// Per-tenant shards for both tenants.
		{"tenant.0.core", reflect.TypeOf(core.Stats{})},
		{"tenant.0.cache.l1", reflect.TypeOf(cache.Stats{})},
		{"tenant.0.vmem", reflect.TypeOf(vmem.Stats{})},
		{"tenant.0.dram", reflect.TypeOf(dram.TenantStats{})},
		{"tenant.1.core", reflect.TypeOf(core.Stats{})},
		{"tenant.1.cache.l1", reflect.TypeOf(cache.Stats{})},
		{"tenant.1.vmem", reflect.TypeOf(vmem.Stats{})},
		{"tenant.1.dram", reflect.TypeOf(dram.TenantStats{})},
		{"tenant.0.vm.tlb", reflect.TypeOf(vm.SpaceStats{})},
		{"tenant.1.vm.tlb", reflect.TypeOf(vm.SpaceStats{})},
	}
	for _, c := range cases {
		checkStructCoverage(t, snap, c.prefix, c.typ)
	}
	for _, name := range []string{
		"tenant.0.vmem.scalar_l2_accesses",
		"tenant.1.vmem.scalar_l2_accesses",
	} {
		if !registered(snap, name) {
			t.Errorf("hand-registered name %q missing", name)
		}
	}
	// The per-tenant read-latency histograms must actually carry samples
	// — both tenants filed misses through the shared backend.
	for _, name := range []string{"tenant.0.dram.read_latency", "tenant.1.dram.read_latency"} {
		h, ok := snap.Hists[name]
		if !ok {
			t.Fatalf("histogram %q unregistered", name)
		}
		if h.Count == 0 {
			t.Errorf("histogram %q registered but empty after a 2-tenant run", name)
		}
	}
}
