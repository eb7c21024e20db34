package experiments

import (
	"fmt"
	"strings"
)

// VAPolicies are the physical placement policies the virtual-address
// sweep compares, in presentation order: naive first-fit (tenants'
// demand faults interleave in the shared pool), per-tenant page
// coloring (each tenant's pages round-robin the DRAM channels from a
// tenant-specific start), and deliberate co-location (each tenant's
// pages packed contiguously for row-hit locality).
var VAPolicies = []struct {
	Token string // spec token ("va", "vacolor", "vacolo")
	Name  string // display name
}{
	{"va", "first-fit"},
	{"vacolor", "color"},
	{"vacolo", "colo"},
}

// vaBaseSpec is the backend the placement sweep contends on. Unlike
// the interference sweep's line interleaving, the bank mapping puts
// the channel-select bits ABOVE the 4 KiB page offset, so each page
// maps wholly to one channel and the allocator's placement decisions
// are visible to the controller at all.
const vaBaseSpec = "sdram/bank/frfcfs"

// vaSpec composes the sweep's backend spec: the banked part, a tenant
// count (multi-tenant cells only), and the placement-policy token that
// turns translation on.
func vaSpec(tenants int, token string) string {
	s := vaBaseSpec
	if tenants > 1 {
		s += fmt.Sprintf("/tn%d", tenants)
	}
	return s + "/" + token
}

// VASweepRow is one (mix, policy) cell of the placement matrix.
type VASweepRow struct {
	Mix    []string
	Policy string  // display name from VAPolicies
	Solo   []int64 // tenant i alone on a private translated part, same policy
	Shared *TenantResult
}

// VASweep runs the placement-policy × kernel-mix interference matrix:
// every interference mix under every placement policy, against solo
// runs on the same translated backend. The experiment behind the
// address-translation subsystem: with real page tables the tenants'
// physical footprints are no longer disjoint-by-construction, so WHERE
// the allocator puts each tenant's pages decides how much they collide
// in the channels and row buffers — coloring should pull the worst
// tenant's slowdown below first-fit, and co-location should trade
// isolation for row-hit locality.
func VASweep(r *Runner) []VASweepRow {
	var solo []SimKey
	var shared []tenantCell
	for _, p := range VAPolicies {
		for _, mix := range IFMixes {
			for _, bench := range mix {
				solo = append(solo, SimKey{Bench: bench, Variant: mom3DVariant,
					Mem: mom3DVCKind, L2Lat: baseLat, DRAM: vaSpec(1, p.Token)})
			}
			shared = append(shared, tenantCell{mix: strings.Join(mix, "+"), l2lat: baseLat,
				spec: vaSpec(len(mix), p.Token)})
		}
	}
	r.prewarm(solo)
	r.prewarmTenants(shared)
	var rows []VASweepRow
	for _, mix := range IFMixes {
		for _, p := range VAPolicies {
			row := VASweepRow{Mix: mix, Policy: p.Name, Solo: make([]int64, len(mix))}
			for i, bench := range mix {
				row.Solo[i] = r.SimDRAM(bench, mom3DVariant, mom3DVCKind, baseLat,
					vaSpec(1, p.Token)).Cycles()
			}
			row.Shared = r.SimTenants(mix, baseLat, vaSpec(len(mix), p.Token))
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderVASweep formats the placement matrix as a fixed-width text
// table, one row per (mix, policy) cell.
func RenderVASweep(rows []VASweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement sweep — tenant mixes over shared physical memory under real address translation (MOM+3D, vector cache + 3D, %s/tn<m>/va*)\n", vaBaseSpec)
	fmt.Fprintf(&b, "%-38s %-24s %6s %6s %6s %6s\n",
		"mix (policy)", "tenant slowdowns vs solo", "max", "jain", "B/cyc", "row%")
	for _, r := range rows {
		label := fmt.Sprintf("%s (%s)", mixLabel(r.Mix), r.Policy)
		sl := slowdowns(r.Shared.Cycles, r.Solo)
		var cells []string
		for _, s := range sl {
			cells = append(cells, fmt.Sprintf("%.2f", s))
		}
		fmt.Fprintf(&b, "%-38s %-24s %6.3f %6.3f %6.2f %6.1f\n",
			label, strings.Join(cells, " "), maxOf(sl), jain(sl),
			r.Shared.DRAM.AchievedBandwidth(), 100*r.Shared.DRAM.RowHitRate())
	}
	b.WriteString("slowdown = shared-pool cycles / solo cycles under the same placement policy; the\n")
	b.WriteString("bank mapping keeps each 4 KiB page on one channel, so placement is the whole\n")
	b.WriteString("story: first-fit interleaves tenants' demand faults wherever the buddy allocator\n")
	b.WriteString("has room, color round-robins each tenant's pages across channels from a\n")
	b.WriteString("tenant-specific start, colo packs each tenant contiguously for row locality.\n")
	return b.String()
}
