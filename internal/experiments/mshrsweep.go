package experiments

import (
	"fmt"

	"repro/internal/dram"
)

// MSHRCounts lists the -mshr values the non-blocking-pipeline sweep
// crosses against the blocking model (a file starts at two registers).
var MSHRCounts = []int{4, 8, 16}

// MSHRBenches are the streaming kernels the sweep runs: the two
// workloads that still generate main-memory traffic at full size
// (everything else fits the 2MB L2 after warmup).
var MSHRBenches = []string{"gsmencode", "motionsearch"}

// MSHRProfiles are the SDRAM timing profiles crossed with the MSHR
// counts ("" is the default DDR profile).
var MSHRProfiles = []string{"", "hbm"}

// MSHRSweep runs the non-blocking-pipeline sweep: for each streaming
// kernel and timing profile, the blocking model (column 0: no MSHR
// file) against MSHR files of increasing size. It is the
// experiment behind the issue/completion split: achieved bandwidth
// should rise once the file covers an instruction's intrinsic
// line-level parallelism (a dvload spans up to 16 lines) and keeps
// rising as batches span multiple instructions.
func MSHRSweep(r *Runner) *Table {
	// mshrs(0) is the blocking machine: no file, no token.
	mshrs := func(n int) func(Row) string {
		return at(func(k *dram.Knobs) { k.MSHRs = n })
	}
	last := MSHRCounts[len(MSHRCounts)-1]
	s := &Sweep{
		Title: "MSHR sweep — blocking model vs non-blocking memory pipeline (MOM+3D, vector cache + 3D, sdram/line/frfcfs)",
		Head:  fmt.Sprintf("%-14s %-4s", "benchmark", "prof"),
		Rows:  benchProfRows(MSHRBenches, MSHRProfiles, dram.Knobs{}),
		Cols:  []Col{{fmt.Sprintf(" %10s", "block cyc"), mshrs(0), " %10d", cycles}},
		Mid:   "MLP and batch spans at the largest file:\n",
		Detail: []Col{
			{"", mshrs(last), fmt.Sprintf(" mshr%d: MLP %%.2f, %%.2f instructions/batch", last),
				func(c Result) []any { return []any{c.Sim.MSHR.MLP(), c.Sim.MSHR.AvgSpan()} }},
			{"", mshrs(0), " (blocking bw %.2f B/cyc)",
				func(c Result) []any { return []any{c.Sim.DRAM.AchievedBandwidth()} }},
		},
	}
	for _, n := range MSHRCounts {
		s.Cols = append(s.Cols, Col{fmt.Sprintf(" %7s %6s", fmt.Sprintf("mshr%d", n), "B/cyc"),
			mshrs(n), " %7d %6.2f", cyclesBW})
	}
	return s.Run(r)
}

// RenderMSHRSweep formats the sweep as a fixed-width text table.
func RenderMSHRSweep(t *Table) string { return t.Render() }
