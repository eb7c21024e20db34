package experiments

import (
	"fmt"

	"repro/internal/dram"
)

// PFConfigs are the prefetcher shapes the stream-prefetch sweep
// crosses, as (streams, degree) pairs; (0, 0) is prefetch-off. The
// stream counts bracket the two streaming kernels' needs: gsmencode
// runs a handful of dense sequential streams, while motionsearch's
// macroblock sweep advances 40+ per-pixel-row streams at once (16 rows
// each of the current block, the reference window and the
// reconstruction store stream), so a small table thrashes before it
// can confirm a stride.
var PFConfigs = []struct{ Streams, Degree int }{
	{0, 0},
	{8, 2},
	{8, 4},
	{48, 2},
	{48, 4},
}

// PFBenches are the streaming kernels the sweep runs — the two
// workloads whose working sets outgrow the 2MB L2 at full size.
var PFBenches = []string{"gsmencode", "motionsearch"}

// PFProfiles are the SDRAM timing profiles crossed with the prefetch
// shapes ("" is the default DDR profile).
var PFProfiles = []string{"", "hbm"}

// PFMSHRs is the MSHR file size the sweep fixes: large enough that a
// 16-line dvload never self-stalls and the prefetch quota (a quarter
// of the file) covers a useful number of speculative lines.
const PFMSHRs = 64

// PFSweep runs the stream-prefetch sweep: for each streaming kernel
// and timing profile, prefetch-off against the table shapes of
// PFConfigs, all over the non-blocking pipeline. It is the experiment
// behind the prefetcher: predicted lines riding the MSHR batch should
// raise achieved bandwidth on kernels whose misses form dense streams,
// and the off column doubles as the equivalence anchor (it must match
// the plain mshr64 configuration exactly). The detail section gives the
// prefetch outcome of every shape but off.
func PFSweep(r *Runner) *Table {
	s := &Sweep{
		Title: fmt.Sprintf("Stream-prefetch sweep — prefetch off vs pf<streams>d<degree> (MOM+3D, vector cache + 3D, sdram/line/frfcfs/mshr%d)", PFMSHRs),
		Head:  fmt.Sprintf("%-14s %-4s", "benchmark", "prof"),
		Rows:  benchProfRows(PFBenches, PFProfiles, dram.Knobs{MSHRs: PFMSHRs}),
		Mid:   "prefetch outcome at each shape (issued: hit/late/useless):\n",
		Note: "note: the off column must match the plain mshr64 pipeline exactly — prefetch-off\n" +
			"is equivalence-tested against the pre-prefetcher model per benchmark and backend.\n",
	}
	for _, c := range PFConfigs {
		spec := at(func(k *dram.Knobs) { k.PFStreams, k.PFDegree = c.Streams, c.Degree })
		label := "off"
		if c.Streams > 0 {
			label = fmt.Sprintf("pf%dd%d", c.Streams, c.Degree)
			s.Detail = append(s.Detail, Col{"", spec, "  " + label + ": %d: %d/%d/%d", func(c Result) []any {
				pf := c.Sim.PF
				return []any{pf.Issued, pf.Hits, pf.Late, pf.Useless}
			}})
		}
		s.Cols = append(s.Cols, Col{fmt.Sprintf(" %9s %6s", label, "B/cyc"), spec, " %9d %6.2f", cyclesBW})
	}
	return s.Run(r)
}

// RenderPFSweep formats the sweep as a fixed-width text table.
func RenderPFSweep(t *Table) string { return t.Render() }
