package tenant_test

// The multi-tenant front end's regression net. The load-bearing test is
// single-tenant equivalence: a 1-tenant group must be the
// single-requestor simulator bit for bit — same steppable core, same
// untouched trace, same memory system construction — proven both
// against core.Simulate directly (every golden backend spec plus the
// prefetcher) and against the pinned golden-stats table itself. On top
// of that: lockstep determinism, requestor-tag routing into the
// backend's stat shards, and the QoS fairness bound at the system
// level.

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// equivMachines are the machines the equivalence test crosses with the
// small kernels: the golden table's three backends and the prefetcher
// riding the non-blocking file on the paper's best configuration, then
// the three front ends NewMemSystem builds differently — address
// translation, the MMX core over banked L1 ports, ideal memory. The
// last row runs the default-size motionsearch instead: the only stream
// here that still holds posted writes when it ends, so the only one on
// which the end-of-run flush has something to do.
var equivMachines = []struct {
	spec string
	v    kernels.Variant
	kind core.MemKind
	full bool
}{
	{spec: "fixed", v: kernels.MOM3D, kind: core.MemVectorCache3D},
	{spec: "sdram/line/frfcfs", v: kernels.MOM3D, kind: core.MemVectorCache3D},
	{spec: "sdram/line/frfcfs/mshr8", v: kernels.MOM3D, kind: core.MemVectorCache3D},
	{spec: "sdram/line/frfcfs/mshr8/pf4", v: kernels.MOM3D, kind: core.MemVectorCache3D},
	{spec: "sdram/bank/frfcfs/mshr8/vacolor", v: kernels.MOM3D, kind: core.MemVectorCache3D},
	{spec: "sdram/line/frfcfs", v: kernels.MMX, kind: core.MemMultiBanked},
	{spec: "fixed", v: kernels.MOM, kind: core.MemIdeal},
	{spec: "sdram/line/frfcfs", v: kernels.MOM3D, kind: core.MemVectorCache3D, full: true},
}

func traceOf(bm kernels.Benchmark, v kernels.Variant) []isa.Inst {
	tr := &trace.Trace{}
	bm.Run(v, tr)
	return tr.Insts
}

// machineFor builds a fresh backend, and the translation layer when the
// spec asks for one, for an n-requestor machine.
func machineFor(t testing.TB, spec string, n int) (vmem.Timing, *vm.VM) {
	t.Helper()
	backend, knobs, err := dram.ParseSpecFull(spec, 100)
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	var vmsys *vm.VM
	if knobs.VA != "" {
		if vmsys, err = core.NewVM(knobs.VA, n, backend); err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
	}
	return vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}, vmsys
}

func timingFor(t testing.TB, spec string) vmem.Timing {
	t.Helper()
	tim, _ := machineFor(t, spec, 1)
	return tim
}

// TestSingleTenantMatchesSimulate: a 1-tenant group is the reference
// single-requestor run exactly. Under both engines its whole registry
// snapshot — every name and every value — equals the one
// core.SimulateStream leaves behind (with the posted writes flushed by
// hand, so the reference does not lean on the Drain it shares with the
// group), and RunSampled records the rows a hand-written loop that
// calls Step every cycle records: one row at every multiple of the
// interval, under the wheel as under the per-cycle engine.
func TestSingleTenantMatchesSimulate(t *testing.T) {
	small := []kernels.Benchmark{
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
	full, ok := kernels.ByName("motionsearch")
	if !ok {
		t.Fatal("motionsearch missing from the suite")
	}
	const every = 500
	for _, m := range equivMachines {
		benches := small
		if m.full {
			benches = []kernels.Benchmark{full}
		}
		cfg := core.MOMCore()
		if m.v == kernels.MMX {
			cfg = core.MMXCore()
		}
		bankL1 := m.v == kernels.MMX && m.kind != core.MemIdeal
		// solo is the single-requestor machine built by hand.
		solo := func() *core.MemSystem {
			tim, vmsys := machineFor(t, m.spec, 1)
			if vmsys != nil {
				tim.VA = vmsys.Space(0)
			}
			return core.NewMemSystem(m.kind, tim, cfg.Lanes, bankL1)
		}
		for _, bm := range benches {
			stream := trace.Compact(traceOf(bm, m.v))
			for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
				key := fmt.Sprintf("%s/%s/%s/%s/%s", bm.Name, m.v, m.kind, m.spec, mode)

				ms := solo()
				want := core.SimulateStream(cfg, ms, stream, mode)
				if sd, ok := ms.DRAM().(*dram.SDRAM); ok {
					sd.Flush()
				}
				wantReg := stats.NewRegistry()
				want.Register(wantReg)
				ms.Register(wantReg)

				ms = solo()
				sim := core.NewStreamSim(cfg, ms, stream, 0)
				loopReg := stats.NewRegistry()
				sim.StatsRef().Register(loopReg)
				ms.Register(loopReg)
				wantRows := stats.NewSampler(loopReg, every)
				for sim.Running() {
					sim.Step()
					if sim.Now()%every == 0 {
						wantRows.Sample(sim.Now())
					}
				}

				tim, vmsys := machineFor(t, m.spec, 1)
				g := tenant.New(tenant.Options{Core: cfg, Kind: m.kind, Tim: tim, Lanes: cfg.Lanes,
					BankL1: bankL1, Streams: []*trace.Stream{stream}, Engine: mode, VM: vmsys})
				reg := stats.NewRegistry()
				g.Register(reg)
				rows := stats.NewSampler(reg, every)
				g.RunSampled(rows)

				if !reflect.DeepEqual(*want, *g.Stats(0)) {
					t.Errorf("%s: core stats diverged\n  simulate %+v\n  tenant   %+v", key, *want, *g.Stats(0))
				}
				if diff := snapshotDiff(wantReg.Snapshot(), reg.Snapshot()); diff != "" {
					t.Errorf("%s: registry snapshot diverged (simulate vs tenant):\n%s", key, diff)
				}
				if len(rows.Rows()) == 0 || !reflect.DeepEqual(wantRows.Rows(), rows.Rows()) {
					t.Errorf("%s: RunSampled recorded %d rows, the hand-stepped loop %d, or they differ",
						key, len(rows.Rows()), len(wantRows.Rows()))
				}
				if g.TenantStatsOf(0) != nil {
					t.Errorf("%s: a single-tenant group must not shard backend stats", key)
				}
			}
		}
	}
}

// snapshotDiff lists every registered name on which two snapshots
// disagree, or that only one of them holds.
func snapshotDiff(want, got stats.Snapshot) string {
	var b strings.Builder
	mapDiff(&b, want.Counters, got.Counters)
	mapDiff(&b, want.Gauges, got.Gauges)
	mapDiff(&b, want.Hists, got.Hists)
	return b.String()
}

func mapDiff[V any](b *strings.Builder, want, got map[string]V) {
	for n, w := range want {
		if g, ok := got[n]; !ok {
			fmt.Fprintf(b, "  %s: missing (want %v)\n", n, w)
		} else if !reflect.DeepEqual(w, g) {
			fmt.Fprintf(b, "  %s: want %v, got %v\n", n, w, g)
		}
	}
	for n, g := range got {
		if _, ok := want[n]; !ok {
			fmt.Fprintf(b, "  %s: unexpected (got %v)\n", n, g)
		}
	}
}

// TestGroupResultDoesNotPinTheMachine: the statistics a group hands out
// are what the experiment runner memoizes per cell, so holding them must
// not keep the group — its Sims' windows, the memory system and its
// cache arrays — reachable. (Finish returns a pointer into the Sim; the
// group keeps copies.)
func TestGroupResultDoesNotPinTheMachine(t *testing.T) {
	cfg := core.MOMCore()
	g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Tim: timingFor(t, "fixed"),
		Lanes: cfg.Lanes, Traces: [][]isa.Inst{traceOf(kernels.GSMEncode(kernels.SmallGSMEncConfig()), kernels.MOM3D)}})
	freed := make(chan struct{})
	runtime.SetFinalizer(g.Mem(0), func(*core.MemSystem) { close(freed) })
	g.Run()
	st := g.Stats(0)
	g = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(st)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the memory system is still reachable from the group's stats (%d cycles)", st.Cycles)
}

// TestSingleTenantMatchesGolden regenerates the pinned golden-stats
// table through the tenant front end: every benchmark × ISA × backend
// row of internal/core/testdata/golden_stats.txt must come back bit-
// identical from a 1-tenant group.
func TestSingleTenantMatchesGolden(t *testing.T) {
	want := loadGoldenTable(t, "../core/testdata/golden_stats.txt")
	variants := []struct {
		v    kernels.Variant
		kind core.MemKind
	}{
		{kernels.MOM3D, core.MemVectorCache3D},
		{kernels.MOM, core.MemVectorCache},
		{kernels.MMX, core.MemMultiBanked},
	}
	benches := []kernels.Benchmark{
		kernels.JPEGEncode(kernels.SmallJPEGEncConfig()),
		kernels.JPEGDecode(kernels.SmallJPEGDecConfig()),
		kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()),
		kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()),
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
	goldenSpecs := []string{"fixed", "sdram/line/frfcfs", "sdram/line/frfcfs/mshr8"}
	seen := 0
	for _, bm := range benches {
		for _, vk := range variants {
			insts := traceOf(bm, vk.v)
			cfg := core.MOMCore()
			if vk.v == kernels.MMX {
				cfg = core.MMXCore()
			}
			for _, spec := range goldenSpecs {
				tim := timingFor(t, spec)
				g := tenant.New(tenant.Options{Core: cfg, Kind: vk.kind, Tim: tim,
					Lanes: cfg.Lanes, BankL1: vk.v == kernels.MMX,
					Traces: [][]isa.Inst{insts}})
				g.Run()
				if sd, ok := tim.Backend.(*dram.SDRAM); ok {
					sd.Flush()
				}
				key := fmt.Sprintf("%s/%s/%s", bm.Name, vk.v, spec)
				w, ok := want[key]
				if !ok {
					t.Fatalf("golden table has no row %q", key)
				}
				got := goldenRow{
					Cycles:    g.Stats(0).Cycles,
					Committed: g.Stats(0).Committed,
					VMMisses:  g.Mem(0).VM.Stats().Misses,
					DRAMReqs:  tim.Backend.Stats().Accesses,
				}
				if got != w {
					t.Errorf("%s: tenant front end diverged from the golden table\n  golden %+v\n  tenant %+v", key, w, got)
				}
				seen++
			}
		}
	}
	if seen != len(want) {
		t.Errorf("compared %d rows, the golden table pins %d", seen, len(want))
	}
}

type goldenRow struct {
	Cycles    int64
	Committed uint64
	VMMisses  uint64
	DRAMReqs  uint64
}

func loadGoldenTable(t *testing.T, path string) map[string]goldenRow {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden table missing: %v", err)
	}
	defer fh.Close()
	out := map[string]goldenRow{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var g goldenRow
		if _, err := fmt.Sscanf(line, "%s cycles=%d committed=%d vmisses=%d dramreqs=%d",
			&key, &g.Cycles, &g.Committed, &g.VMMisses, &g.DRAMReqs); err != nil {
			t.Fatalf("golden table line %q: %v", line, err)
		}
		out[key] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// runPair builds and runs one n-tenant group over a fresh backend and
// returns it with its timing (for backend access).
func runPair(t *testing.T, spec string, insts []isa.Inst, n int) (*tenant.Group, vmem.Timing) {
	t.Helper()
	cfg := core.MOMCore()
	tim := timingFor(t, spec)
	traces := make([][]isa.Inst, n)
	for i := range traces {
		traces[i] = insts
	}
	g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D,
		Tim: tim, Lanes: cfg.Lanes, Traces: traces})
	g.Run()
	return g, tim
}

// TestLockstepDeterministic: the same 2-tenant run twice must produce
// identical per-tenant cycle counts and backend shards — the lockstep
// interleaving admits no nondeterminism.
func TestLockstepDeterministic(t *testing.T) {
	insts := traceOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D)
	const spec = "sdram/line/frfcfs/mshr8/tn2"
	a, _ := runPair(t, spec, insts, 2)
	b, _ := runPair(t, spec, insts, 2)
	for i := 0; i < 2; i++ {
		if a.Stats(i).Cycles != b.Stats(i).Cycles {
			t.Errorf("tenant %d: cycles %d vs %d across identical runs", i, a.Stats(i).Cycles, b.Stats(i).Cycles)
		}
		if !reflect.DeepEqual(a.TenantStatsOf(i), b.TenantStatsOf(i)) {
			t.Errorf("tenant %d: backend shards diverged across identical runs", i)
		}
	}
}

// TestTenantShardsRouteTraffic: with 2 tenants on a shared SDRAM, both
// shards must see reads, the shard totals must add up to the backend's
// global counters, and the per-tenant read-latency histograms must
// carry every read.
func TestTenantShardsRouteTraffic(t *testing.T) {
	insts := traceOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D)
	g, tim := runPair(t, "sdram/line/frfcfs/tn2", insts, 2)
	if sd, ok := tim.Backend.(*dram.SDRAM); ok {
		sd.Flush()
	}
	ds := tim.Backend.Stats()
	var reads, writes uint64
	for i := 0; i < 2; i++ {
		ts := g.TenantStatsOf(i)
		if ts == nil {
			t.Fatalf("tenant %d: no backend shard", i)
		}
		if ts.Reads == 0 {
			t.Errorf("tenant %d: no reads recorded", i)
		}
		if ts.ReadLatency.Count() != ts.Reads {
			t.Errorf("tenant %d: latency histogram holds %d samples for %d reads",
				i, ts.ReadLatency.Count(), ts.Reads)
		}
		reads += ts.Reads
		writes += ts.Writes
	}
	if total := reads + writes; total != ds.Accesses {
		t.Errorf("shards sum to %d accesses, the backend served %d", total, ds.Accesses)
	}
	// Identical kernels, disjoint address windows: both tenants file the
	// same miss stream, so the shards must agree on volume.
	a, b := g.TenantStatsOf(0), g.TenantStatsOf(1)
	if a.Reads != b.Reads || a.Bytes != b.Bytes {
		t.Errorf("symmetric tenants diverged: %d/%d reads, %d/%d bytes", a.Reads, b.Reads, a.Bytes, b.Bytes)
	}
}

// TestQoSBoundsWorstTenant is the system-level starvation check: on the
// four-way motionsearch storm, QoS scheduling must keep the worst
// tenant's cycle count strictly below the plain FR-FCFS run's — the
// acceptance bound of the subsystem — without losing total traffic.
func TestQoSBoundsWorstTenant(t *testing.T) {
	// The default-size kernel: the small config retires in ~3.5K cycles,
	// too short for queue contention to develop at all.
	bm, ok := kernels.ByName("motionsearch")
	if !ok {
		t.Fatal("motionsearch missing from the suite")
	}
	insts := traceOf(bm, kernels.MOM3D)
	base, baseTim := runPair(t, "sdram/line/frfcfs/tn4", insts, 4)
	qos, qosTim := runPair(t, "sdram/line/frfcfs/tn4/qos", insts, 4)
	worst := func(g *tenant.Group) int64 {
		m := int64(0)
		for i := 0; i < g.N(); i++ {
			if c := g.Stats(i).Cycles; c > m {
				m = c
			}
		}
		return m
	}
	bw, qw := worst(base), worst(qos)
	if qw >= bw {
		t.Errorf("QoS worst tenant %d cycles, plain FR-FCFS %d — QoS must bound the worst tenant below the baseline", qw, bw)
	}
	if baseTim.Backend.Stats().Accesses != qosTim.Backend.Stats().Accesses {
		t.Errorf("QoS changed traffic volume: %d vs %d accesses",
			qosTim.Backend.Stats().Accesses, baseTim.Backend.Stats().Accesses)
	}
	if qosTim.Backend.Stats().QoSDeferred == 0 {
		t.Error("QoS run yielded no scheduling turns; the credit pick never engaged")
	}
}
