package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dram"
)

// IFMixes are the tenant mixes the interference sweep runs: the
// symmetric four-way motionsearch storm (the bandwidth-saturation
// case), the latency-vs-streaming pairing of the issue — gsmencode's
// sparse row-friendly stream sharing the part with motionsearch's
// conflict-heavy one — and the four-way version of the same pairing
// where three streaming tenants crowd the sparse one.
var IFMixes = [][]string{
	{"motionsearch", "motionsearch", "motionsearch", "motionsearch"},
	{"motionsearch", "gsmencode"},
	{"motionsearch", "motionsearch", "motionsearch", "gsmencode"},
}

// ifBaseSpec is the shared-backend configuration the sweep contends
// on: the banked commodity-DDR part under demand FR-FCFS. The
// blocking pipeline keeps each tenant's in-flight demand small, so
// the interference measured is the controller's, not the MSHR file's.
const ifBaseSpec = "sdram/line/frfcfs"

// IFSweepRow compares one tenant mix with and without QoS scheduling
// against each tenant's solo run on the same backend configuration.
type IFSweepRow struct {
	Mix   []string
	Solo  []int64 // tenant i's cycles alone on a private part
	Base  *SimResult
	QoS   *SimResult
	Defer uint64 // scheduling turns yielded under QoS
}

// Slowdowns is cycles-under-contention over cycles-solo per tenant.
func slowdowns(contended, solo []int64) []float64 {
	out := make([]float64, len(contended))
	for i := range contended {
		out[i] = float64(contended[i]) / float64(solo[i])
	}
	return out
}

// jain is Jain's fairness index over per-tenant slowdowns: 1 when every
// tenant suffers equally, approaching 1/n as one tenant absorbs all the
// interference.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// IFSweep runs the interference sweep: every mix solo, shared without
// QoS, and shared with QoS on the same banked backend. The experiment
// behind the multi-tenant subsystem: the shared part must slow every
// tenant (no free lunch), and QoS must pull the worst tenant's
// slowdown below the plain FR-FCFS baseline — by yielding over-share
// scheduling turns and picking ready banks first — without giving the
// bandwidth back.
func IFSweep(r *Runner) []IFSweepRow {
	t := ifSweep(IFMixes).Run(r)
	var rows []IFSweepRow
	for i, mix := range IFMixes {
		base, qos := t.Cells[2*i][0], t.Cells[2*i+1][0]
		rows = append(rows, IFSweepRow{Mix: mix, Solo: base.Solo, Base: base.Sim,
			QoS: qos.Sim, Defer: qos.Sim.DRAM.QoSDeferred})
	}
	return rows
}

// shared is the backend of a mix-matrix line: the FR-FCFS part under
// one address mapping with the row's tenant knobs.
func shared(mapping string) func(Row) string {
	return func(w Row) string { return sdramSpec(mapping, "frfcfs", "", w.Knobs) }
}

// fairness is the shared head of a mix-matrix line: every tenant's
// slowdown, the worst of them, and Jain's index over them.
func fairness(c Result) []any {
	sl := slowdowns(c.Sim.Cycles, c.Solo)
	var cells []string
	for _, s := range sl {
		cells = append(cells, fmt.Sprintf("%.2f", s))
	}
	return []any{strings.Join(cells, " "), slices.Max(sl), jain(sl)}
}

// ifSweep declares the interference table: every mix twice, under
// plain FR-FCFS and under QoS credit scheduling.
func ifSweep(mixes [][]string) *Sweep {
	s := &Sweep{
		Title: fmt.Sprintf("Interference sweep — tenant mixes on one shared part, FR-FCFS vs QoS credit scheduling (MOM+3D, vector cache + 3D, %s/tn<m>[/qos])", ifBaseSpec),
		Head:  fmt.Sprintf("%-38s", "mix"),
		Cols: []Col{{fmt.Sprintf(" %-24s %6s %6s %6s %6s", "tenant slowdowns vs solo", "max", "jain", "B/cyc", "defer"),
			shared("line"), " %-24s %6.3f %6.3f %6.2f %6d", func(c Result) []any {
				return append(fairness(c), c.Sim.DRAM.AchievedBandwidth(), c.Sim.DRAM.QoSDeferred)
			}}},
		Note: "slowdown = shared-part cycles / solo cycles on the same backend; max is the worst\n" +
			"tenant (the QoS target), jain is Jain's fairness index over the slowdowns, defer\n" +
			"counts scheduling turns over-share tenants yielded. QoS must beat the frfcfs max\n" +
			"in every mix while holding bandwidth; tenants are address-disjoint, so slowdowns\n" +
			"measure pure controller and bus contention.\n",
	}
	for _, mix := range mixes {
		for _, qos := range []bool{false, true} {
			sched := " (frfcfs)"
			if qos {
				sched = " (qos)"
			}
			s.Rows = append(s.Rows, Row{Label: fmt.Sprintf("%-38s", mixLabel(mix)+sched), Mix: mix,
				Solo: ifBaseSpec, Knobs: dram.Knobs{Tenants: len(mix), QoS: qos}})
		}
	}
	return s
}

// mixLabel compresses a tenant mix into "3x motionsearch + gsmencode"
// form, run-length encoding adjacent repeats.
func mixLabel(mix []string) string {
	var parts []string
	for i := 0; i < len(mix); {
		j := i
		for j < len(mix) && mix[j] == mix[i] {
			j++
		}
		if j-i > 1 {
			parts = append(parts, fmt.Sprintf("%dx %s", j-i, mix[i]))
		} else {
			parts = append(parts, mix[i])
		}
		i = j
	}
	return strings.Join(parts, " + ")
}

// RenderIFSweep formats the sweep as a fixed-width text table.
func RenderIFSweep(rows []IFSweepRow) string {
	var mixes [][]string
	var cells [][]Result
	for _, w := range rows {
		mixes = append(mixes, w.Mix)
		cells = append(cells, []Result{{Sim: w.Base, Solo: w.Solo}}, []Result{{Sim: w.QoS, Solo: w.Solo}})
	}
	return (&Table{ifSweep(mixes), cells}).Render()
}
