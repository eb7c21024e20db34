package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// This file emits the CPI-stack report (BENCH_PR10.json): whole-pipeline
// cycle attribution for every benchmark across the backend ladder the
// golden matrix pins — the blocking flat-latency model, the banked SDRAM
// channel, and the non-blocking MSHR file on top of it. Each row's
// buckets are checked against the conservation invariant (they sum to
// the run's cycle count exactly) before the report is rendered, so a
// published table can never silently leak cycles.

// CPISweepSpecs is the backend ladder the sweep climbs; it mirrors
// BenchSpecs so every row joins against the golden table and the
// BENCH_PR6 snapshot by key.
var CPISweepSpecs = BenchSpecs

// CPISweepRow is one configuration's cycle attribution. Stack keys are
// the registry's core.cpi.* suffixes (busy, dram_wait, qos_yield, ...),
// so consumers can cross-check the report against a -statsjson snapshot.
type CPISweepRow struct {
	Config string            `json:"config"` // bench/ISA/backend-spec
	Cycles int64             `json:"cycles"`
	Stack  map[string]uint64 `json:"cpi"`
}

// CPISweepReport is the exported document.
type CPISweepReport struct {
	Suite string        `json:"suite"`
	Rows  []CPISweepRow `json:"rows"`
}

// stackMap flattens a CPI stack into registry-suffix keys.
func stackMap(c *core.CPIStack) map[string]uint64 {
	buckets := c.Buckets()
	m := make(map[string]uint64, len(buckets))
	for _, b := range buckets {
		m[b.Name] = b.N
	}
	return m
}

// CPISweep attributes every cycle of the MOM+3D suite across the
// backend ladder, panicking if any row violates conservation — a
// corrupted attribution must never render as a plausible table.
func CPISweep(r *Runner, suite string) *CPISweepReport {
	s := &Sweep{Rows: benchRows(r.Benchmarks())}
	for _, spec := range CPISweepSpecs {
		s.Cols = append(s.Cols, Col{Spec: on(spec)})
	}
	rep := &CPISweepReport{Suite: suite}
	for _, cells := range s.Run(r).Cells {
		for _, c := range cells {
			res := c.Sim
			if got, want := res.Core.CPI.Sum(), uint64(res.Core.Cycles); got != want {
				panic(fmt.Sprintf("experiments: cpi sweep %s/%s: stack sums to %d, run took %d cycles",
					res.Key.Bench, res.Key.DRAM, got, want))
			}
			rep.Rows = append(rep.Rows, CPISweepRow{
				Config: fmt.Sprintf("%s/%s/%s", res.Key.Bench, res.Key.Variant, res.Key.DRAM),
				Cycles: res.Core.Cycles,
				Stack:  stackMap(&res.Core.CPI),
			})
		}
	}
	return rep
}

// RenderCPISweep formats the report as a fixed-width text table: one
// row per configuration, one percentage column per bucket. Buckets the
// whole sweep leaves at zero are dropped so the blocking rows don't
// drag eleven columns of zeros through the table.
func RenderCPISweep(rep *CPISweepReport) string {
	var live []string
	for _, bk := range new(core.CPIStack).Buckets() {
		for _, r := range rep.Rows {
			if r.Stack[bk.Name] > 0 {
				live = append(live, bk.Name)
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CPI stacks — MOM+3D, vector cache + 3D, percent of run cycles per bucket (suite %s)\n", rep.Suite)
	fmt.Fprintf(&b, "%-14s %-24s %9s |", "bench", "backend", "cycles")
	for _, col := range live {
		fmt.Fprintf(&b, " %9s", col)
	}
	b.WriteByte('\n')
	for _, r := range rep.Rows {
		parts := strings.SplitN(r.Config, "/", 3)
		fmt.Fprintf(&b, "%-14s %-24s %9d |", parts[0], parts[2], r.Cycles)
		for _, col := range live {
			fmt.Fprintf(&b, " %8.1f%%", 100*float64(r.Stack[col])/float64(r.Cycles))
		}
		b.WriteByte('\n')
	}
	b.WriteString("every row's buckets sum to its cycle count exactly (conservation is asserted, not rounded).\n")
	return b.String()
}

// WriteJSON writes the report as indented, deterministically-ordered
// JSON (encoding/json sorts map keys).
func (rep *CPISweepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
