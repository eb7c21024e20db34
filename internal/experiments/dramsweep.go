package experiments

import (
	"fmt"

	"repro/internal/dram"
)

// DRAMMappings lists the SDRAM address-mapping schemes the sweep
// compares, in presentation order.
var DRAMMappings = []string{"line", "bank", "row"}

// benchRows is one row per benchmark.
func benchRows(benches []string) []Row {
	var rows []Row
	for _, bench := range benches {
		rows = append(rows, Row{Label: fmt.Sprintf("%-14s", bench), Bench: bench})
	}
	return rows
}

// DRAMSweep runs the fixed-vs-SDRAM comparison across the runner's
// suite on the paper's best configuration (MOM+3D over the vector
// cache with the 3D register file): each benchmark under the seed's
// flat model, the SDRAM backend in every mapping scheme (FR-FCFS), and
// the FCFS scheduler under the default line mapping.
func DRAMSweep(r *Runner) *Table {
	s := &Sweep{
		Title: "DRAM sweep — fixed 100-cycle latency vs banked SDRAM (MOM+3D, vector cache + 3D)",
		Head:  fmt.Sprintf("%-14s", "benchmark"),
		Rows:  benchRows(r.Benchmarks()),
		Cols:  []Col{{fmt.Sprintf(" %10s", "fixed cyc"), on(""), " %10d", cycles}},
		Mid: "note: sdram columns use FR-FCFS; fcfs column uses the line mapping.\n" +
			"achieved bandwidth (bytes/cycle) and bank-level parallelism per mapping:\n",
	}
	for _, m := range DRAMMappings {
		spec := on(sdramSpec(m, "frfcfs", "", dram.Knobs{}))
		s.Cols = append(s.Cols, Col{fmt.Sprintf(" %10s %8s", m+" cyc", "rowhit"), spec, " %10d %8.3f",
			func(c Result) []any { return []any{c.Sim.Core.Cycles, c.Sim.DRAM.RowHitRate()} }})
		s.Detail = append(s.Detail, Col{"", spec, "  " + m + " %.2f B/c blp %.2f", func(c Result) []any {
			return []any{c.Sim.DRAM.AchievedBandwidth(), c.Sim.DRAM.BankLevelParallelism()}
		}})
	}
	s.Cols = append(s.Cols, Col{fmt.Sprintf(" %10s", "fcfs cyc"),
		on(sdramSpec("line", "fcfs", "", dram.Knobs{})), " %10d", cycles})
	return s.Run(r)
}

// DRAMChannels lists the channel counts the scaling sweep crosses.
var DRAMChannels = []int{1, 2, 4, 8}

// DRAMChannelScaling runs the channel-count sweep the batched
// transaction API unlocks: an instruction's misses fan out across
// per-channel controller shards, so bandwidth should scale with the
// channel count on streaming kernels. It uses the line-interleaved
// mapping (the one that spreads a stream over every channel) with
// FR-FCFS.
func DRAMChannelScaling(r *Runner) *Table {
	s := &Sweep{
		Title: "DRAM channel scaling — sdram/line/frfcfs, batched misses fanned out per channel",
		Head:  fmt.Sprintf("%-14s", "benchmark"),
		Rows:  benchRows(r.Benchmarks()),
		Note: "note: B/cyc is achieved DRAM bandwidth over the active window; util\n" +
			"is data-bus busy time summed over channels (an n-channel part tops out at n).\n",
	}
	for _, ch := range DRAMChannels {
		// The default channel count leaves the knob unset so the result
		// is shared with DRAMSweep's memoized simulations.
		knob := ch
		if ch == dram.DefaultConfig().Channels {
			knob = 0
		}
		s.Cols = append(s.Cols, Col{fmt.Sprintf(" %11s %8s %6s", fmt.Sprintf("%dch", ch), "B/cyc", "util"),
			at(func(k *dram.Knobs) { k.Channels = knob }), " %11d %8.2f %6.2f", func(c Result) []any {
				return []any{c.Sim.Core.Cycles, c.Sim.DRAM.AchievedBandwidth(), c.Sim.DRAM.BusUtilization()}
			}})
	}
	return s.Run(r)
}

// RenderDRAMSweep and RenderChannelScaling format the two tables as
// fixed-width text.
func RenderDRAMSweep(t *Table) string      { return t.Render() }
func RenderChannelScaling(t *Table) string { return t.Render() }
