package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/stats"
)

// LatDistProfiles are the SDRAM timing profiles the latency-distribution
// table compares: the commodity DIMM against the die-stacked part.
var LatDistProfiles = []string{"ddr", "hbm"}

// LatDistBench is the workload the table runs: the streaming kernel
// whose working set defeats the L2, so every distribution below is over
// real main-memory traffic rather than a handful of cold misses.
const LatDistBench = "motionsearch"

// latDistMSHRs sizes the MSHR file behind the distributions; the
// non-blocking pipeline is what makes queue-wait distinct from service
// time (a blocking pipeline never queues more than one read).
const latDistMSHRs = 8

// LatDistRow holds the four per-request latency distributions of one
// timing profile: where a read waited (queue), how long the banks took
// (service), the end-to-end miss-to-fill time the pipeline saw, and
// how long address translation stalled issue on a page-table walk.
type LatDistRow struct {
	Profile string
	Spec    string
	Cycles  int64
	Wait    stats.HistSnapshot // dram.read_wait: admission to first service
	Service stats.HistSnapshot // dram.read_service: service start to data
	Fill    stats.HistSnapshot // vmem.mshr.fill: miss allocation to fill
	Walk    stats.HistSnapshot // vm.walk.latency: TLB miss to translation
}

// LatDist measures the read-latency distributions of each timing
// profile on the streaming kernel, read from the histograms the cell's
// result carries (TestLatDistMatchesRegistry holds them to the registry
// names above). Translation is on (first-touch placement) so the
// walk-latency distribution sits next to the DRAM ones it feeds.
func LatDist(r *Runner) []LatDistRow {
	s := &Sweep{Cols: []Col{{Spec: at(func(k *dram.Knobs) { k.MSHRs, k.VA = latDistMSHRs, "first" })}}}
	for _, prof := range LatDistProfiles {
		s.Rows = append(s.Rows, Row{Bench: LatDistBench, Prof: prof})
	}
	var rows []LatDistRow
	for i, cells := range s.Run(r).Cells {
		res := cells[0].Sim
		rows = append(rows, LatDistRow{
			Profile: LatDistProfiles[i],
			Spec:    res.Key.DRAM,
			Cycles:  res.Core.Cycles,
			Wait:    res.DRAM.ReadWait.Snapshot(),
			Service: res.DRAM.ReadService.Snapshot(),
			Fill:    res.MSHR.Fill.Snapshot(),
			Walk:    res.Walk.Snapshot(),
		})
	}
	return rows
}

// RenderLatDist formats the distributions as a fixed-width text table,
// one row per profile and one column group per distribution.
func RenderLatDist(rows []LatDistRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory read-latency distributions — %s, MOM+3D, vector cache + 3D, sdram/line/frfcfs/<prof>/mshr%d/va\n",
		LatDistBench, latDistMSHRs)
	fmt.Fprintf(&b, "%-5s %9s %6s |", "prof", "cycles", "reads")
	for _, g := range []string{"queue-wait", "service", "miss-to-fill", "tlb-walk"} {
		fmt.Fprintf(&b, " %25s |", g)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-5s %9s %6s |", "", "", "")
	for range 4 {
		fmt.Fprintf(&b, " %6s %5s %5s %6s |", "mean", "p50", "p95", "max")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %9d %6d |", r.Profile, r.Cycles, r.Wait.Count)
		for _, h := range []stats.HistSnapshot{r.Wait, r.Service, r.Fill, r.Walk} {
			fmt.Fprintf(&b, " %6.1f %5d %5d %6d |",
				h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max)
		}
		b.WriteByte('\n')
	}
	b.WriteString("latencies in cycles; p50/p95 are log2-bucket upper bounds. queue-wait + service = per-read\n")
	b.WriteString("controller latency; miss-to-fill adds the L2 round trip and any MSHR batching delay;\n")
	b.WriteString("tlb-walk is the translation stall an L2-TLB miss imposed on issue.\n")
	return b.String()
}
