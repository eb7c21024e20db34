package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/vreg"
)

// Table1Row is one benchmark's memory-instruction vector lengths per
// dimension, for MOM and MOM+3D (the paper's Table 1).
type Table1Row struct {
	Bench string
	// MOM build.
	MOMDim1, MOMDim2 float64
	// MOM+3D build.
	D3Dim1, D3Dim2, D3Dim3 float64
	D3Dim3Max              int
	Has3D                  bool
}

// Table1 reproduces "Memory instruction vector length for each of the
// three dimensions".
func Table1(r *Runner) []Table1Row {
	var rows []Table1Row
	for _, bench := range r.Benchmarks() {
		mom := r.MOMVectorCache(bench).Trace
		d3 := r.MOM3DVectorCache(bench).Trace
		row := Table1Row{Bench: bench}
		row.MOMDim1, row.MOMDim2, _, _, _ = mom.Dims()
		row.D3Dim1, row.D3Dim2, row.D3Dim3, row.D3Dim3Max, row.Has3D = d3.Dims()
		rows = append(rows, row)
	}
	return rows
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — memory instruction vector length per dimension\n")
	fmt.Fprintf(&b, "%-14s %21s %31s\n", "", "MOM (1st/2nd)", "MOM+3D (1st/2nd/3rd (max))")
	for _, r := range rows {
		third := "      —"
		if r.Has3D {
			third = fmt.Sprintf("%.1f (%d)", r.D3Dim3, r.D3Dim3Max)
		}
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %10.1f %10.1f %9s\n",
			r.Bench, r.MOMDim1, r.MOMDim2, r.D3Dim1, r.D3Dim2, third)
	}
	return b.String()
}

// Table2 renders the processor configurations (the paper's Table 2).
func Table2() string {
	mmx, mom := core.MMXCore(), core.MOMCore()
	var b strings.Builder
	b.WriteString("Table 2 — processor configurations\n")
	row := func(name string, a, c any) {
		fmt.Fprintf(&b, "%-24s %12v %12v\n", name, a, c)
	}
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "", "MMX", "MOM")
	row("fetch rate", mmx.FetchWidth, mom.FetchWidth)
	row("graduation window", mmx.Window, mom.Window)
	row("load/store queue", mmx.LSQ, mom.LSQ)
	// The model gives each integer slot its own unit, each memory slot its own L1 port.
	row("INTEGER issue", mmx.IntIssue, mom.IntIssue)
	row("INTEGER FUs", mmx.IntIssue, mom.IntIssue)
	row("SIMD issue", mmx.SIMDIssue, mom.SIMDIssue)
	row("SIMD FUs", fmt.Sprintf("%d", mmx.SIMDIssue), fmt.Sprintf("%dx%d", mom.SIMDIssue, mom.Lanes))
	row("memory issue", mmx.MemIssue, mom.MemIssue)
	row("L1 memory ports", mmx.MemIssue, mom.MemIssue)
	row("L2 vector ports", "n/a", fmt.Sprintf("1x%d", mom.Lanes))
	return b.String()
}

// Table3 renders the register file configurations and areas (the paper's
// Table 3, reproduced exactly by the vreg area model).
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3 — multimedia register file configurations (areas in square wire tracks)\n")
	cfgs := []vreg.Config{vreg.MMX(), vreg.MOM(), vreg.MOM3D()}
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%s:\n", c.Name)
		for _, f := range c.Files {
			fmt.Fprintf(&b, "  %-18s %3d/%3d regs x %5d b, %dR/%dW x%d lanes  %12d wt\n",
				f.Name, f.Logical, f.Physical, f.BitsPerReg, f.ReadPorts, f.WritePorts, f.Lanes, f.AreaWT())
		}
		if c.Bus.Buses > 0 {
			fmt.Fprintf(&b, "  %-18s %dx%d bits %38d wt\n", "cache buses", c.Bus.Buses, c.Bus.Bits, c.Bus.AreaWT())
		}
		fmt.Fprintf(&b, "  %-18s %51d wt\n", "total", c.TotalWT())
	}
	norm := vreg.Normalized(cfgs...)
	fmt.Fprintf(&b, "normalized areas: MMX %.2f, MOM %.2f, MOM+3D %.2f\n", norm[0], norm[1], norm[2])
	return b.String()
}

// Table4Row is one benchmark's L2 activity per memory system.
type Table4Row struct {
	Bench                          string
	MultiBanked, VectorCache, VC3D uint64
}

// Table4 reproduces "L2 cache activity (accesses to L2)".
func Table4(r *Runner) []Table4Row {
	var rows []Table4Row
	for _, bench := range r.Benchmarks() {
		rows = append(rows, Table4Row{
			Bench:       bench,
			MultiBanked: r.MOMMultiBanked(bench).Activity,
			VectorCache: r.MOMVectorCache(bench).Activity,
			VC3D:        r.MOM3DVectorCache(bench).Activity,
		})
	}
	return rows
}

// RenderTable4 formats Table 4 (thousands of accesses; the paper reports
// millions over its full-size inputs).
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4 — L2 cache activity (thousands of accesses)\n")
	fmt.Fprintf(&b, "%-14s %14s %14s %18s\n", "benchmark", "multi-banked", "vector cache", "vcache + 3D RF")
	var sumMB, sumVC, sum3D float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14.1f %14.1f %18.1f\n",
			r.Bench, float64(r.MultiBanked)/1e3, float64(r.VectorCache)/1e3, float64(r.VC3D)/1e3)
		sumMB += float64(r.MultiBanked)
		sumVC += float64(r.VectorCache)
		sum3D += float64(r.VC3D)
	}
	if sumMB > 0 && sumVC > 0 {
		fmt.Fprintf(&b, "vector cache vs multi-banked: %.0f%% fewer accesses; +3D RF vs vector cache: %.0f%% fewer\n",
			100*(1-sumVC/sumMB), 100*(1-sum3D/sumVC))
	}
	return b.String()
}

// Headline summarizes the paper's abstract-level claims from the measured
// data: average 3D speedup over the MOM vector cache and L2 power saving.
type Headline struct {
	AvgSpeedupPct     float64 // MOM+3D vs MOM on the vector cache
	AvgL2PowerSavePct float64 // L2 power, MOM+3D vs MOM vector cache
	AreaOverheadPct   float64 // register file area vs MMX
}

// ComputeHeadline derives the abstract's three numbers.
func ComputeHeadline(r *Runner) Headline {
	p := power.DefaultParams()
	var speedups, powerSaves []float64
	for _, bench := range r.Benchmarks() {
		mom := r.MOMVectorCache(bench)
		d3 := r.MOM3DVectorCache(bench)
		speedups = append(speedups, float64(mom.Core.Cycles)/float64(d3.Core.Cycles)-1)
		pm := power.Estimate(p, mom.Core.Cycles, &mom.VM, mom.ScalarL2, 0).L2Watts
		pd := power.Estimate(p, d3.Core.Cycles, &d3.VM, d3.ScalarL2, d3.Trace.D3MoveElems).L2Watts
		if pm > 0 {
			powerSaves = append(powerSaves, 1-pd/pm)
		}
	}
	norm := vreg.Normalized(vreg.MOM3D())
	return Headline{
		AvgSpeedupPct:     100 * mean(speedups),
		AvgL2PowerSavePct: 100 * mean(powerSaves),
		AreaOverheadPct:   100 * (norm[0] - 1),
	}
}

// Render formats the headline summary.
func (h Headline) Render() string {
	return fmt.Sprintf(
		"Headline (paper: +13%% speed, -30%% L2 power, +50%% area):\n"+
			"  avg speedup MOM+3D vs MOM vector cache: %+.1f%%\n"+
			"  avg L2 power saving:                    %.1f%%\n"+
			"  register file area overhead vs MMX:     %+.1f%%\n",
		h.AvgSpeedupPct, h.AvgL2PowerSavePct, h.AreaOverheadPct)
}
