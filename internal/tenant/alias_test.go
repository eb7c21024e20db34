package tenant_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
)

func streamOf(bm kernels.Benchmark, v kernels.Variant) *trace.Stream {
	var rec trace.Recorder
	s, _ := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
	return s
}

// Tenants without address translation all read the streams they were
// handed — the same one, when they run the same kernel — and each adds
// its own window base at dispatch. Two things pin that to the private
// rebased copies it replaced. Every memory instruction tenant i issues
// carries its recorded address plus i<<32, and nothing else carries an
// address at all (the core's issue spans are the witness: one per
// memory instruction, stamped with the address the memory system saw).
// And per-tenant cycle counts equal the rows frozen from the build that
// still copied and rebased, under both engines.
func TestTenantsAliasOneStream(t *testing.T) {
	ms := streamOf(kernels.MotionSearch(kernels.SmallMotionSearchConfig()), kernels.MOM3D)
	gsm := streamOf(kernels.GSMEncode(kernels.SmallGSMEncConfig()), kernels.MOM3D)
	jpg := streamOf(kernels.JPEGEncode(kernels.SmallJPEGEncConfig()), kernels.MOM3D)

	for _, tc := range []struct {
		streams []*trace.Stream
		spec    string
		cycles  []int64 // per tenant, from the parent of the commit that deleted tenant.rebase
	}{
		{[]*trace.Stream{ms, ms, ms, ms}, "sdram/line/frfcfs/mshr8/tn4/qos", []int64{4234, 4450, 4666, 4882}},
		{[]*trace.Stream{ms, gsm, jpg}, "sdram/line/frfcfs/mshr8/pf4", []int64{2413, 3101, 16586}},
		{[]*trace.Stream{gsm, gsm}, "sdram/line/frfcfs", []int64{3188, 3296}},
	} {
		insts, mem := make([][]isa.Inst, len(tc.streams)), make([]int, len(tc.streams))
		for i, s := range tc.streams {
			for _, in := range s.All() {
				insts[i] = append(insts[i], in)
				if in.Kind.IsMem() {
					mem[i]++
				}
			}
		}
		for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
			cfg := core.MOMCore()
			g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D,
				Tim: timingFor(t, tc.spec), Lanes: cfg.Lanes, Streams: tc.streams, Engine: mode})
			tr := stats.NewTracer(1 << 20)
			g.AttachTracer(tr)
			g.Run()

			var cycles []int64
			for i := 0; i < g.N(); i++ {
				cycles = append(cycles, g.Stats(i).Cycles)
			}
			if !slices.Equal(cycles, tc.cycles) {
				t.Errorf("%s [%v]: per-tenant cycles %v, the rebased copies ran %v", tc.spec, mode, cycles, tc.cycles)
			}

			if tr.Dropped() != 0 {
				t.Fatalf("%s [%v]: tracer dropped %d events; raise its capacity", tc.spec, mode, tr.Dropped())
			}
			issued := make([]int, g.N())
			for _, ev := range tr.Events() {
				if ev.Cat != "core" || ev.Ph != 'B' {
					continue
				}
				in := insts[ev.Tenant][ev.ID]
				if !in.Kind.IsMem() {
					t.Fatalf("%s [%v]: tenant %d issued %s (seq %d) with an address", tc.spec, mode, ev.Tenant, in.Kind, ev.ID)
				}
				if want := in.Addr + uint64(ev.Tenant)<<tenant.RebaseShift; ev.Addr != want {
					t.Fatalf("%s [%v]: tenant %d seq %d issued at %#x, want %#x (recorded %#x)",
						tc.spec, mode, ev.Tenant, ev.ID, ev.Addr, want, in.Addr)
				}
				issued[ev.Tenant]++
			}
			if !slices.Equal(issued, mem) {
				t.Errorf("%s [%v]: tenants issued %v memory instructions, their streams hold %v",
					tc.spec, mode, issued, mem)
			}
		}
	}
}
