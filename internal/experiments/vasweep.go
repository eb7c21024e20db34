package experiments

import (
	"fmt"

	"repro/internal/dram"
)

// VAPolicies are the physical placement policies the virtual-address
// sweep compares, in presentation order: naive first-fit (tenants'
// demand faults interleave in the shared pool), per-tenant page
// coloring (each tenant's pages round-robin the DRAM channels from a
// tenant-specific start), and deliberate co-location (each tenant's
// pages packed contiguously for row-hit locality).
var VAPolicies = []struct {
	VA   string // dram.Knobs.VA value ("first", "color", "colo")
	Name string // display name
}{
	{"first", "first-fit"},
	{"color", "color"},
	{"colo", "colo"},
}

// vaBaseSpec is the backend the placement sweep contends on. Unlike
// the interference sweep's line interleaving, the bank mapping puts
// the channel-select bits ABOVE the 4 KiB page offset, so each page
// maps wholly to one channel and the allocator's placement decisions
// are visible to the controller at all.
const vaBaseSpec = "sdram/bank/frfcfs"

// VASweep runs the placement-policy × kernel-mix interference matrix:
// every interference mix under every placement policy — one row per
// (mix, policy) cell — against solo runs on the same translated
// backend. The experiment behind the address-translation subsystem:
// with real page tables the tenants' physical footprints are no longer
// disjoint-by-construction, so WHERE the allocator puts each tenant's
// pages decides how much they collide in the channels and row buffers —
// coloring should pull the worst tenant's slowdown below first-fit, and
// co-location should trade isolation for row-hit locality.
func VASweep(r *Runner) *Table {
	s := &Sweep{
		Title: fmt.Sprintf("Placement sweep — tenant mixes over shared physical memory under real address translation (MOM+3D, vector cache + 3D, %s/tn<m>/va*)", vaBaseSpec),
		Head:  fmt.Sprintf("%-38s", "mix (policy)"),
		Cols: []Col{{fmt.Sprintf(" %-24s %6s %6s %6s %6s", "tenant slowdowns vs solo", "max", "jain", "B/cyc", "row%"),
			shared("bank"), " %-24s %6.3f %6.3f %6.2f %6.1f", func(c Result) []any {
				return append(fairness(c), c.Sim.DRAM.AchievedBandwidth(), 100*c.Sim.DRAM.RowHitRate())
			}}},
		Note: "slowdown = shared-pool cycles / solo cycles under the same placement policy; the\n" +
			"bank mapping keeps each 4 KiB page on one channel, so placement is the whole\n" +
			"story: first-fit interleaves tenants' demand faults wherever the page pool\n" +
			"has room, color round-robins each tenant's pages across channels from a\n" +
			"tenant-specific start, colo packs each tenant contiguously for row locality.\n",
	}
	for _, mix := range IFMixes {
		for _, p := range VAPolicies {
			s.Rows = append(s.Rows, Row{Label: fmt.Sprintf("%-38s", fmt.Sprintf("%s (%s)", mixLabel(mix), p.Name)),
				Mix: mix, Solo: sdramSpec("bank", "frfcfs", "", dram.Knobs{VA: p.VA}),
				Knobs: dram.Knobs{Tenants: len(mix), VA: p.VA}})
		}
	}
	return s.Run(r)
}

// RenderVASweep formats the placement matrix as a fixed-width text
// table, one row per (mix, policy) cell.
func RenderVASweep(t *Table) string { return t.Render() }
