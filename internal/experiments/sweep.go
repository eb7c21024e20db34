package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dram"
)

// This file is the sweep driver. A sweep is a value: the rows it
// prints, the columns each row reads — every column names the cell it
// reads and how that cell's numbers print — and the prose around them.
// Run walks rows × columns exactly once to learn the cells, hands that
// one list to the worker pool, then gathers from the memo; Render turns
// the gathered grid into the fixed-width table. Because nothing but the
// driver ever enumerates, every sweep honours Runner.Workers, and two
// sweeps that name the same machine share its simulation.

// Result is what one cell's simulation produced, plus, when the row
// runs a mix, every tenant's cycles alone.
type Result struct {
	Sim  *SimResult
	Solo []int64
}

// Row is one line of a sweep: the label columns as they print, what
// runs — Bench alone, or Mix's tenants sharing the backend, each also
// run alone on the Solo backend — and the part of the machine the row
// fixes for every column. Everything runs on the paper's best
// configuration (MOM+3D over the vector cache with the 3D register
// file).
type Row struct {
	Label string
	Bench string
	Mix   []string
	Solo  string
	Prof  string     // SDRAM timing profile; "" is the default DDR part
	Knobs dram.Knobs // columns set theirs on top
}

// Col is one column group: the backend of the cell a row reads under it
// and how that cell prints. Head is padded to line up with Fmt's output.
type Col struct {
	Head string
	Spec func(Row) string
	Fmt  string
	Get  func(Result) []any
}

// Sweep declares one table. Detail, if set, is a second section with
// one indented line per row, printed between Mid and Note.
type Sweep struct {
	Title  string
	Head   string // header of the label columns
	Rows   []Row
	Cols   []Col
	Mid    string
	Detail []Col
	Note   string
}

// Table is a sweep that has run: Cells[i] holds what row i read under
// each of Cols, then under each of Detail.
type Table struct {
	*Sweep
	Cells [][]Result
}

// bestKey is the memo key of a benchmark on the paper's best
// configuration over one backend.
func bestKey(bench, spec string) SimKey {
	return SimKey{Bench: bench, Variant: mom3DVariant, Mem: mom3DVCKind, L2Lat: baseLat, DRAM: spec}
}

// sdramSpec is the one place the sweeps compose backend specs. Zero
// knobs print nothing, so a column that spells a default — rpopen, the
// preset's channel count — names the same memo entry as a sweep that
// never mentions the knob, and the machine is simulated once.
func sdramSpec(mapping, sched, prof string, k dram.Knobs) string {
	return dram.FormatSpecOpts("sdram", mapping, sched, prof, k)
}

// profName is the display name of a row's timing profile.
func profName(prof string) string {
	if prof == "" {
		return "ddr"
	}
	return prof
}

// on is the backend of a column that runs every row on one literal spec.
func on(spec string) func(Row) string { return func(Row) string { return spec } }

// at is the backend of a grid column: the line-interleaved FR-FCFS part
// under the row's profile, the column's knobs set on top of the row's.
func at(set func(*dram.Knobs)) func(Row) string {
	return func(w Row) string {
		k := w.Knobs
		set(&k)
		return sdramSpec("line", "frfcfs", w.Prof, k)
	}
}

// benchProfRows crosses benchmarks with timing profiles, every row
// fixing the same knobs.
func benchProfRows(benches, profs []string, k dram.Knobs) []Row {
	var rows []Row
	for _, bench := range benches {
		for _, prof := range profs {
			rows = append(rows, Row{Label: fmt.Sprintf("%-14s %-4s", bench, profName(prof)),
				Bench: bench, Prof: prof, Knobs: k})
		}
	}
	return rows
}

// Typed getters the grids share.
func cycles(c Result) []any { return []any{c.Sim.Core.Cycles} }
func cyclesBW(c Result) []any {
	return []any{c.Sim.Core.Cycles, c.Sim.DRAM.AchievedBandwidth()}
}

// Run simulates the sweep on r: one enumeration of rows × columns, one
// prewarm of the cells it found, one gather. The mixes' solo baselines
// head the list, the order the pool has always reported them in.
func (s *Sweep) Run(r *Runner) *Table {
	cols := append(s.Cols[:len(s.Cols):len(s.Cols)], s.Detail...)
	var cells []SimKey
	for _, w := range s.Rows {
		for _, bench := range w.Mix {
			cells = append(cells, bestKey(bench, w.Solo))
		}
	}
	grid := len(cells)
	for _, w := range s.Rows {
		bench := w.Bench
		if w.Mix != nil {
			bench = strings.Join(w.Mix, "+")
		}
		for _, c := range cols {
			cells = append(cells, bestKey(bench, c.Spec(w)))
		}
	}
	r.prewarm(cells)
	t := &Table{Sweep: s, Cells: make([][]Result, len(s.Rows))}
	for i, w := range s.Rows {
		var solo []int64
		for _, bench := range w.Mix {
			solo = append(solo, r.cell(bestKey(bench, w.Solo)).Core.Cycles)
		}
		for _, k := range cells[grid+i*len(cols):][:len(cols)] {
			t.Cells[i] = append(t.Cells[i], Result{Sim: r.cell(k), Solo: solo})
		}
	}
	return t
}

// Render formats the table as fixed-width text.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n" + t.Head)
	for _, c := range t.Cols {
		b.WriteString(c.Head)
	}
	b.WriteByte('\n')
	line := func(label string, cols []Col, res []Result) {
		b.WriteString(label)
		for j, c := range cols {
			fmt.Fprintf(&b, c.Fmt, c.Get(res[j])...)
		}
		b.WriteByte('\n')
	}
	for i, w := range t.Rows {
		line(w.Label, t.Cols, t.Cells[i])
	}
	b.WriteString(t.Mid)
	if len(t.Detail) > 0 {
		for i, w := range t.Rows {
			line("  "+w.Label, t.Detail, t.Cells[i][len(t.Cols):])
		}
	}
	b.WriteString(t.Note)
	return b.String()
}
