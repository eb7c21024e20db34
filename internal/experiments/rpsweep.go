package experiments

import (
	"fmt"

	"repro/internal/dram"
)

// RPPolicies are the per-bank row policies the sweep crosses, as
// rp<name> spec tokens: the static open page (the default and the
// controller's historical behaviour), static close (auto-precharge),
// and the 2-bit history live/dead predictor.
var RPPolicies = []string{"open", "close", "history"}

// RPBenches are the streaming kernels the sweep runs — the same two
// full-size workloads the MSHR and prefetch sweeps use, which bracket
// the policy space: gsmencode streams at 0.9+ row-hit rates (open
// pages pay), while motionsearch on the commodity profile conflicts on
// nearly every access (0.02 row-hit rate — closed pages pay).
var RPBenches = []string{"gsmencode", "motionsearch"}

// RPProfiles are the SDRAM timing profiles crossed with the policies
// ("" is the default DDR profile).
var RPProfiles = []string{"", "hbm"}

// rpPFShape returns the PR 4 best prefetcher shape for one benchmark ×
// profile — the configuration whose motionsearch/ddr regression the
// demand-priority scheduler exists to close — so the sweep's prefetch
// matrix measures each row policy under live speculative traffic.
func rpPFShape(bench, profile string) (streams, degree int) {
	if bench == "gsmencode" {
		if profile == "hbm" {
			return 8, 4
		}
		return 8, 2
	}
	return 48, 2
}

// RPSweep runs the row-policy sweep: for each streaming kernel and
// timing profile, the three per-bank policies over demand-only traffic
// and again under the kernel's PR 4 prefetcher shape with the
// demand-priority scheduler (the row's Knobs), all behind the
// PFMSHRs-entry file. It is the experiment behind the policy
// subsystem: the history predictor should converge to open-page
// behaviour where rows pay (gsmencode — zero flips, bit-identical to
// rpopen) and to close-page where they thrash (motionsearch/ddr
// demand traffic), while the prefetch matrix shows demand-priority
// closing the PR 4 motionsearch/ddr regression with gsmencode's
// bandwidth intact.
func RPSweep(r *Runner) *Table {
	s := &Sweep{
		Title: fmt.Sprintf("Row-policy sweep — per-bank policies × traffic mix under demand-priority scheduling (MOM+3D, vector cache + 3D, sdram/line/frfcfs/rp<p>/mshr%d[/pf<n>d<m>])", PFMSHRs),
		Head:  fmt.Sprintf("%-14s %-4s %-7s", "benchmark", "prof", "traffic"),
		Mid:   "policy internals at each point (closed early / reopened / predictor flips; pfq-deferred prefetches):\n",
		Note: "note: rpopen is the PR 4 model's policy — with prefetch off it is pinned bit-identical\n" +
			"to the golden-stats table; the history predictor should match rpopen where rows pay\n" +
			"(gsmencode) and converge to rpclose where they thrash (motionsearch demand traffic).\n",
	}
	for _, w := range benchProfRows(RPBenches, RPProfiles, dram.Knobs{MSHRs: PFMSHRs}) {
		label := w.Label
		w.Label = fmt.Sprintf("%s %-7s", label, "demand")
		s.Rows = append(s.Rows, w)
		w.Knobs.PFStreams, w.Knobs.PFDegree = rpPFShape(w.Bench, profName(w.Prof))
		w.Label = fmt.Sprintf("%s %-7s", label, fmt.Sprintf("pf%dd%d", w.Knobs.PFStreams, w.Knobs.PFDegree))
		s.Rows = append(s.Rows, w)
	}
	for _, p := range RPPolicies {
		rp := p
		if rp == "open" {
			// The default policy needs no token: rpopen is the machine
			// PFSweep runs for the same shape, under the same memo key.
			rp = ""
		}
		spec := at(func(k *dram.Knobs) { k.RP = rp })
		s.Cols = append(s.Cols, Col{fmt.Sprintf(" %9s %6s %6s", "rp"+p, "B/cyc", "rowhit"), spec, " %9d %6.2f %6.3f",
			func(c Result) []any {
				return []any{c.Sim.Core.Cycles, c.Sim.DRAM.AchievedBandwidth(), c.Sim.DRAM.RowHitRate()}
			}})
		s.Detail = append(s.Detail, Col{"", spec, "  rp" + p + ": %d/%d/%d (%d def)", func(c Result) []any {
			d := c.Sim.DRAM
			return []any{d.RowClosedEarly, d.RowReopened, d.PredictorFlips, d.PrefetchDeferred}
		}})
	}
	return s.Run(r)
}

// RenderRPSweep formats the sweep as a fixed-width text table.
func RenderRPSweep(t *Table) string { return t.Render() }
