package tenant_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/knobtest"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// groupCycleCap is far past any mix of test-scale kernels on the slowest
// machine the knob ranges admit; a group still running there is a hang.
const groupCycleCap = 50_000_000

// FuzzGroup is core's FuzzMachine for the multi-tenant front end: 2–4
// tenants, each one of the test-scale kernels, on any machine the knob
// table admits — tn<n>, qos, an MSHR file, the prefetcher and address
// translation among the knobs — must build without panicking, retire
// under both engines within a cycle cap, and report the same per-tenant
// core.Stats and the same registry snapshot from both: the wheel's
// per-tenant wake-ups against per-cycle lockstep.
func FuzzGroup(f *testing.F) {
	benches := []kernels.Benchmark{
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.JPEGEncode(kernels.SmallJPEGEncConfig()),
		kernels.JPEGDecode(kernels.SmallJPEGDecConfig()),
		kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()),
		kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()),
	}
	streams := make([]*trace.Stream, len(benches)) // recorded on first use, then only read
	stream := func(i int) *trace.Stream {
		if streams[i] == nil {
			streams[i] = trace.Compact(traceOf(benches[i], kernels.MOM3D))
		}
		return streams[i]
	}

	// One seed per table row at its maximum and one at its minimum, on
	// the banked part, over a mix that covers every kernel across the
	// seeds.
	f.Add([]byte{}, uint16(0), uint8(0), true)
	f.Add([]byte{}, uint16(1), uint8(2), false)
	for _, v := range []uint16{0xFFFF, 1} {
		for i := range dram.KnobTable {
			pick := make([]byte, 2*len(dram.KnobTable))
			binary.LittleEndian.PutUint16(pick[2*i:], v)
			f.Add(pick, uint16(7*i), uint8(i), true)
		}
	}
	f.Fuzz(func(t *testing.T, pick []byte, mix uint16, tenants uint8, sdram bool) {
		kind := "fixed"
		if sdram {
			kind = "sdram"
		}
		n := 2 + int(tenants)%3
		sel := knobtest.Pick(t, pick, sdram)
		sel.Tenants = n // the spec names the group's requestor count
		backend, err := sel.Build(kind, 100)
		if err == nil && sel.VA != "" {
			_, err = core.NewVM(sel.VA, n, backend)
		}
		if err != nil {
			t.Skip(err)
		}
		spec := sel.Spec(kind)
		mixed := make([]*trace.Stream, n)
		for i := range mixed {
			mixed[i] = stream(int(mix) % len(benches))
			mix /= uint16(len(benches))
		}
		run := func(mode engine.Mode) (*tenant.Group, stats.Snapshot) {
			cfg := core.MOMCore()
			tim, vmsys := machineFor(t, spec, n)
			g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Tim: tim,
				Lanes: cfg.Lanes, Streams: mixed, Engine: mode, VM: vmsys})
			reg := stats.NewRegistry()
			g.Register(reg)
			// The cap is a sampler whose first row is the failure: the group
			// samples only when its clock crosses the interval.
			capReg := stats.NewRegistry()
			capReg.Gauge("cap", func() int64 {
				t.Fatalf("%d tenants on %s: still running at cycle %d under %v", n, spec, groupCycleCap, mode)
				return 0
			})
			g.RunSampled(stats.NewSampler(capReg, groupCycleCap))
			return g, reg.Snapshot()
		}
		step, stepSnap := run(engine.Step)
		wheel, wheelSnap := run(engine.Wheel)
		requireSameRun(t, fmt.Sprintf("%d tenants on %s", n, spec), step, wheel, stepSnap, wheelSnap)
	})
}
