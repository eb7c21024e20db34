package repro

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its artifact from scratch (trace generation + cycle
// simulation) and reports the figure's headline quantity as a custom
// metric, so `go test -bench=.` is the full reproduction run.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
	"repro/internal/vreg"
)

func newRunner() *experiments.Runner { return experiments.NewRunner() }

func BenchmarkTable1VectorLengths(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(newRunner())
		for _, r := range rows {
			if r.Bench == "gsmencode" {
				b.ReportMetric(r.D3Dim3, "gsm-dim3")
			}
		}
	}
}

func BenchmarkTable2Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3Areas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := vreg.MOM3D().TotalWT()
		if total != 4_646_464 {
			b.Fatalf("Table 3 area regression: %d", total)
		}
	}
	b.ReportMetric(vreg.Normalized(vreg.MOM3D())[0], "norm-area")
}

func BenchmarkTable4L2Activity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(newRunner())
		var vc, d3 float64
		for _, r := range rows {
			vc += float64(r.VectorCache)
			d3 += float64(r.VC3D)
		}
		b.ReportMetric(100*(1-d3/vc), "%activity-cut")
	}
}

func BenchmarkFigure3Slowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure3(newRunner())
		b.ReportMetric(seriesMean(f, "MOM vector cache"), "vc-slowdown")
	}
}

func BenchmarkFigure6Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure6(newRunner())
		b.ReportMetric(seriesMean(f, "MOM+3D vcache"), "3d-words/access")
	}
}

func BenchmarkFigure7TrafficReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure7(newRunner())
		b.ReportMetric(seriesMean(f, "traffic reduction"), "%traffic-cut")
	}
}

func BenchmarkFigure9Slowdowns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure9(newRunner())
		b.ReportMetric(seriesMean(f, "MOM+3D vcache"), "3d-slowdown")
		b.ReportMetric(seriesMean(f, "MOM vector cache"), "vc-slowdown")
	}
}

func BenchmarkFigure10LatencyRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure10(newRunner())
		b.ReportMetric(seriesMean(f, "MOM @60"), "mom@60")
		b.ReportMetric(seriesMean(f, "MOM+3D @60"), "mom3d@60")
	}
}

func BenchmarkFigure11Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure11(newRunner())
		b.ReportMetric(seriesMean(f, "MOM vector cache"), "vc-watts")
		b.ReportMetric(seriesMean(f, "MOM+3D vcache"), "3d-watts")
	}
}

func BenchmarkHeadline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := experiments.ComputeHeadline(newRunner())
		b.ReportMetric(h.AvgSpeedupPct, "%speedup")
		b.ReportMetric(h.AvgL2PowerSavePct, "%l2-power-save")
	}
}

// Component micro-benchmarks: simulator and trace-generation throughput.

func BenchmarkTraceGeneration(b *testing.B) {
	bm := kernels.GSMEncode(kernels.DefaultGSMEncConfig())
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		st := trace.NewStats()
		bm.Run(kernels.MOM3D, st)
		n = st.Total
	}
	b.ReportMetric(float64(n), "instructions")
}

func BenchmarkCycleSimulator(b *testing.B) {
	bm := kernels.GSMEncode(kernels.DefaultGSMEncConfig())
	tr := &trace.Trace{}
	bm.Run(kernels.MOM3D, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := core.NewMemSystem(core.MemVectorCache3D, vmem.DefaultTiming(), 4, false)
		st := core.Simulate(core.MOMCore(), ms, tr.Insts)
		b.ReportMetric(float64(st.Cycles), "cycles")
	}
}

func seriesMean(f *experiments.Figure, name string) float64 {
	for _, s := range f.Series {
		if s.Name != name {
			continue
		}
		var sum float64
		for _, v := range s.Values {
			sum += v
		}
		return sum / float64(len(s.Values))
	}
	return 0
}
