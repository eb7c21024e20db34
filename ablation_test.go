package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// lane count (vector cache port width), the graduation window, branch
// prediction, and the 3D register file geometry. Each reports the cycle
// count of the mpeg2encode flagship under the varied parameter.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// simulate runs insts to completion cycle by cycle through the
// reference loop.
func simulate(cfg core.Config, mem *core.MemSystem, insts []isa.Inst) *core.Stats {
	return core.SimulateStream(cfg, mem, trace.Compact(insts), engine.Step)
}

func mpeg2encTrace(v kernels.Variant) *trace.Trace {
	tr := &trace.Trace{}
	kernels.MPEG2Encode(kernels.DefaultMPEG2EncConfig()).Run(v, tr)
	return tr
}

// BenchmarkAblationLanes sweeps the MOM lane count (which is also the
// vector cache port width in words): the paper's 4 lanes vs 2 and 8.
func BenchmarkAblationLanes(b *testing.B) {
	tr := mpeg2encTrace(kernels.MOM)
	for _, lanes := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.MOMCore()
				cfg.Lanes = lanes
				ms := core.NewMemSystem(core.MemVectorCache, vmem.DefaultTiming(), lanes, false)
				st := simulate(cfg, ms, tr.Insts)
				b.ReportMetric(float64(st.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationWindow sweeps the graduation window: the paper's 128
// vs half and double. The 3D build leans on the window for its prefetch
// effect, so this quantifies that sensitivity.
func BenchmarkAblationWindow(b *testing.B) {
	tr := mpeg2encTrace(kernels.MOM3D)
	for _, window := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.MOMCore()
				cfg.Window = window
				ms := core.NewMemSystem(core.MemVectorCache3D, vmem.DefaultTiming(), cfg.Lanes, false)
				st := simulate(cfg, ms, tr.Insts)
				b.ReportMetric(float64(st.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationGshare compares the perfect-prediction default against
// the gshare predictor (the §5.3 modeling assumption).
func BenchmarkAblationGshare(b *testing.B) {
	tr := mpeg2encTrace(kernels.MOM3D)
	for _, gshare := range []bool{false, true} {
		name := "perfect"
		if gshare {
			name = "gshare"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.MOMCore()
				cfg.UseGshare = gshare
				ms := core.NewMemSystem(core.MemVectorCache3D, vmem.DefaultTiming(), cfg.Lanes, false)
				st := simulate(cfg, ms, tr.Insts)
				b.ReportMetric(float64(st.Cycles), "cycles")
				b.ReportMetric(float64(st.Mispredicts), "mispredicts")
			}
		})
	}
}

// BenchmarkAblation3DWidth sweeps the dvload element width used by the
// gsm lag search (the traffic/latency trade-off of §4: wider elements
// amortize more lags per load but delay the first slice).
func BenchmarkAblation3DWidth(b *testing.B) {
	// The kernel's width is fixed; emulate the sweep at the memory level
	// by reissuing its dvloads with different widths.
	base := &trace.Trace{}
	kernels.GSMEncode(kernels.DefaultGSMEncConfig()).Run(kernels.MOM3D, base)
	for _, width := range []int{2, 5, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp := append([]isa.Inst(nil), base.Insts...)
				for j := range cp {
					if cp[j].Width > 0 {
						cp[j].Width = width
					}
				}
				ms := core.NewMemSystem(core.MemVectorCache3D, vmem.DefaultTiming(), 4, false)
				st := simulate(core.MOMCore(), ms, cp)
				b.ReportMetric(float64(st.Cycles), "cycles")
				b.ReportMetric(float64(ms.VM.Stats().Words), "L2-words")
			}
		})
	}
}
