package experiments

import (
	"fmt"
	"strings"

	"repro/internal/power"
)

// Series is one named data series over the benchmark list of a figure.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a regenerated paper figure: one value per (series, benchmark).
type Figure struct {
	ID         string
	Title      string
	Benchmarks []string
	Series     []Series
	Unit       string
	Note       string
}

// Render formats the figure as a fixed-width text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", f.ID, f.Title)
	if f.Unit != "" {
		fmt.Fprintf(&b, " (%s)", f.Unit)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteByte('\n')
	for i, bench := range f.Benchmarks {
		fmt.Fprintf(&b, "%-14s", bench)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %18.3f", s.Values[i])
		}
		b.WriteByte('\n')
	}
	if len(f.Benchmarks) > 1 {
		fmt.Fprintf(&b, "%-14s", "average")
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %18.3f", mean(s.Values))
		}
		b.WriteByte('\n')
	}
	if f.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", f.Note)
	}
	return b.String()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Figure3 reproduces "Performance slowdown for realistic memory system
// configurations": MOM over the multi-banked cache and the vector cache,
// relative to MOM over idealistic memory.
func Figure3(r *Runner) *Figure {
	f := &Figure{
		ID:         "Figure 3",
		Title:      "performance slowdown vs idealistic memory (MOM)",
		Benchmarks: r.Benchmarks(),
		Unit:       "x",
		Note:       "paper: slowdowns range from ~1.07x to ~1.58x; vector cache close to multi-banked",
	}
	mb := Series{Name: "MOM multi-banked"}
	vc := Series{Name: "MOM vector cache"}
	for _, bench := range f.Benchmarks {
		ideal := float64(r.MOMIdeal(bench).Core.Cycles)
		mb.Values = append(mb.Values, float64(r.MOMMultiBanked(bench).Core.Cycles)/ideal)
		vc.Values = append(vc.Values, float64(r.MOMVectorCache(bench).Core.Cycles)/ideal)
	}
	f.Series = []Series{mb, vc}
	return f
}

// Figure6 reproduces "Effective memory bandwidth (words per access)".
func Figure6(r *Runner) *Figure {
	f := &Figure{
		ID:         "Figure 6",
		Title:      "effective memory bandwidth",
		Benchmarks: r.Benchmarks(),
		Unit:       "64-bit words / access",
		Note:       "paper: 3D vectorization on the vector cache beats even the multi-banked design",
	}
	mb := Series{Name: "MOM multi-banked"}
	vc := Series{Name: "MOM vector cache"}
	d3 := Series{Name: "MOM+3D vcache"}
	for _, bench := range f.Benchmarks {
		mb.Values = append(mb.Values, r.MOMMultiBanked(bench).VM.EffectiveBandwidth())
		vc.Values = append(vc.Values, r.MOMVectorCache(bench).VM.EffectiveBandwidth())
		d3.Values = append(d3.Values, r.MOM3DVectorCache(bench).VM.EffectiveBandwidth())
	}
	f.Series = []Series{mb, vc, d3}
	return f
}

// Figure7 reproduces "Vector cache traffic reduction when using 3D
// vectorization (in 64-bit words transferred)".
func Figure7(r *Runner) *Figure {
	f := &Figure{
		ID:         "Figure 7",
		Title:      "vector cache traffic reduction from 3D register reuse",
		Benchmarks: r.Benchmarks(),
		Unit:       "%",
		Note:       "jpegdecode has no 3D patterns (0%); gsmencode's overlapped lag windows reduce most",
	}
	s := Series{Name: "traffic reduction"}
	for _, bench := range f.Benchmarks {
		mom := float64(r.MOMVectorCache(bench).VM.Words)
		d3 := float64(r.MOM3DVectorCache(bench).VM.Words)
		red := 0.0
		if mom > 0 {
			red = 100 * (1 - d3/mom)
		}
		s.Values = append(s.Values, red)
	}
	f.Series = []Series{s}
	return f
}

// Figure9 reproduces "Performance slowdown for the different ISA and
// memory sub-system configurations" (all relative to MOM with idealistic
// memory).
func Figure9(r *Runner) *Figure {
	f := &Figure{
		ID:         "Figure 9",
		Title:      "performance slowdown vs idealistic-memory MOM",
		Benchmarks: r.Benchmarks(),
		Unit:       "x",
		Note:       "paper averages: MMX-ideal 1.31x, MOM-mb 1.19x, MOM-vc 1.22x, MOM+3D 1.08x",
	}
	mmxMB := Series{Name: "MMX multi-banked"}
	mmxID := Series{Name: "MMX ideal"}
	momMB := Series{Name: "MOM multi-banked"}
	momVC := Series{Name: "MOM vector cache"}
	d3VC := Series{Name: "MOM+3D vcache"}
	for _, bench := range f.Benchmarks {
		ideal := float64(r.MOMIdeal(bench).Core.Cycles)
		mmxMB.Values = append(mmxMB.Values, float64(r.MMXMultiBanked(bench).Core.Cycles)/ideal)
		mmxID.Values = append(mmxID.Values, float64(r.MMXIdeal(bench).Core.Cycles)/ideal)
		momMB.Values = append(momMB.Values, float64(r.MOMMultiBanked(bench).Core.Cycles)/ideal)
		momVC.Values = append(momVC.Values, float64(r.MOMVectorCache(bench).Core.Cycles)/ideal)
		d3VC.Values = append(d3VC.Values, float64(r.MOM3DVectorCache(bench).Core.Cycles)/ideal)
	}
	f.Series = []Series{mmxMB, mmxID, momMB, momVC, d3VC}
	return f
}

// Figure10Benchmarks are the four benchmarks of the latency study.
var Figure10Benchmarks = []string{"jpegencode", "mpeg2decode", "mpeg2encode", "gsmencode"}

// Figure10 reproduces "Normalized execution time for different L2 cache
// latencies with and without 3D memory instructions": L2 latency 20, 40,
// 60 cycles; each benchmark normalized to MOM at 20 cycles.
func Figure10(r *Runner) *Figure {
	lats := []int64{20, 40, 60}
	var benches []string
	for _, b := range Figure10Benchmarks {
		if _, ok := r.benches[b]; ok {
			benches = append(benches, b)
		}
	}
	f := &Figure{
		ID:         "Figure 10",
		Title:      "normalized execution time vs L2 latency",
		Benchmarks: benches,
		Unit:       "relative to MOM @ 20 cycles",
		Note:       "paper: MOM slows ~1.27x at 40 cycles; MOM+3D only ~1.18x",
	}
	for _, variant := range []struct {
		name string
		sim  func(bench string, lat int64) *SimResult
	}{
		{"MOM", func(b string, l int64) *SimResult {
			return r.Sim(b, momVariant, momVCKind, l)
		}},
		{"MOM+3D", func(b string, l int64) *SimResult {
			return r.Sim(b, mom3DVariant, mom3DVCKind, l)
		}},
	} {
		for _, lat := range lats {
			s := Series{Name: fmt.Sprintf("%s @%d", variant.name, lat)}
			for _, bench := range benches {
				base := float64(r.Sim(bench, momVariant, momVCKind, 20).Core.Cycles)
				s.Values = append(s.Values, float64(variant.sim(bench, lat).Core.Cycles)/base)
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// Figure11 reproduces "Memory sub-system (L2 cache + 3D RF) average power
// consumption for the different configurations".
func Figure11(r *Runner) *Figure {
	p := power.DefaultParams()
	f := &Figure{
		ID:         "Figure 11",
		Title:      "memory subsystem average power (L2 + 3D RF)",
		Benchmarks: r.Benchmarks(),
		Unit:       "W",
		Note:       "paper: ~30% L2 power saving from 3D vectorization; 3D RF power negligible",
	}
	mb := Series{Name: "MOM multi-banked"}
	vc := Series{Name: "MOM vector cache"}
	d3 := Series{Name: "MOM+3D vcache"}
	d3rf := Series{Name: "(3D RF share)"}
	for _, bench := range f.Benchmarks {
		rm := r.MOMMultiBanked(bench)
		mb.Values = append(mb.Values, power.Estimate(p, rm.Core.Cycles, &rm.VM, rm.ScalarL2, 0).Total())
		rv := r.MOMVectorCache(bench)
		vc.Values = append(vc.Values, power.Estimate(p, rv.Core.Cycles, &rv.VM, rv.ScalarL2, 0).Total())
		rd := r.MOM3DVectorCache(bench)
		bd := power.Estimate(p, rd.Core.Cycles, &rd.VM, rd.ScalarL2, rd.Trace.D3MoveElems)
		d3.Values = append(d3.Values, bd.Total())
		d3rf.Values = append(d3rf.Values, bd.D3Watts)
	}
	f.Series = []Series{mb, vc, d3, d3rf}
	return f
}
