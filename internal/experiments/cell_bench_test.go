package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernels"
)

// BenchmarkCell times single cells under the per-cycle engine: every
// iteration builds the machine as the runner does, runs it to
// completion and releases it. The stream is generated once, before the
// timer starts, so the figure is the core's issue stage and the memory
// system behind it, with none of the sweep driver, trace generation or
// rendering the bench workloads also time. ns/cycle and ns/inst divide
// the elapsed time by the simulated cycles and by the instructions
// committed; visits/inst and sorted/inst are the issue scans' turns and
// sorted elements per instruction (core.Work), which no host noise
// moves. One cell per memory system:
//
//	go test ./internal/experiments -run '^$' -bench Cell -count 10
func BenchmarkCell(b *testing.B) {
	for _, key := range []SimKey{
		{Bench: "gsmencode", Variant: kernels.MOM, Mem: core.MemIdeal, L2Lat: 20},
		{Bench: "mpeg2decode", Variant: kernels.MOM, Mem: core.MemVectorCache, L2Lat: 20},
		{Bench: "mpeg2encode", Variant: kernels.MMX, Mem: core.MemMultiBanked, L2Lat: 20},
	} {
		b.Run(fmt.Sprintf("%s/%s/%s", key.Bench, key.Variant, key.Mem), func(b *testing.B) {
			r := NewRunner()
			r.Engine = engine.Step
			insts := int64(r.traceFor(key.Bench, key.Variant).tr.Len())
			b.ResetTimer()
			var cycles int64
			var work core.Work
			for i := 0; i < b.N; i++ {
				g := r.machine(key)
				g.Run()
				cycles += g.Stats(0).Cycles
				work.Add(g.Work())
				g.Release()
			}
			ns := float64(b.Elapsed().Nanoseconds())
			n := float64(insts * int64(b.N))
			b.ReportMetric(ns/float64(cycles), "ns/cycle")
			b.ReportMetric(ns/n, "ns/inst")
			b.ReportMetric(float64(work.ScanTurns)/n, "visits/inst")
			b.ReportMetric(float64(work.Sorted)/n, "sorted/inst")
		})
	}
}

// TestWorkCountsRepeat runs one cell twice and requires equal work
// counts: they are a function of commit, machine and stream, so a
// perf claim can quote them exactly.
func TestWorkCountsRepeat(t *testing.T) {
	key := SimKey{Bench: "mpeg2encode", Variant: kernels.MOM, Mem: core.MemVectorCache, L2Lat: 20}
	r := NewRunnerWith([]kernels.Benchmark{kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig())})
	var runs [2]core.Work
	for i := range runs {
		g := r.machine(key)
		g.Run()
		runs[i] = g.Work()
		g.Release()
	}
	if runs[0] != runs[1] {
		t.Errorf("one cell, two runs, different work: %+v, then %+v", runs[0], runs[1])
	}
	if w := runs[0]; w.ScanTurns == 0 || w.RingEvents == 0 {
		t.Errorf("the cell counted no work: %+v", w)
	}
}
