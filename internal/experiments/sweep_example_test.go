package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dram"
)

// The function between the markers is DESIGN.md's worked example,
// "Sweeps as data". TestSweepExampleMatchesDesign holds the two copies
// together, so the example in the document is code that compiles, runs
// under -j and renders.

// example:begin
// WQSweep crosses write-queue drain thresholds with the streaming
// kernels and both timing profiles behind an 8-entry MSHR file.
func WQSweep(r *Runner) *Table {
	s := &Sweep{
		Title: "Write-queue sweep — drain threshold (MOM+3D, vector cache + 3D, sdram/line/frfcfs/wq<n>/mshr8)",
		Head:  fmt.Sprintf("%-14s %-4s", "benchmark", "prof"),
		Rows:  benchProfRows(MSHRBenches, MSHRProfiles, dram.Knobs{MSHRs: 8}),
		Note:  "note: drains counts the write-queue drain episodes of the run.\n",
	}
	for _, n := range []int{8, 12, 16} {
		s.Cols = append(s.Cols, Col{
			Head: fmt.Sprintf(" %9s %6s %6s", fmt.Sprintf("wq%d", n), "B/cyc", "drains"),
			Spec: at(func(k *dram.Knobs) { k.WQDrain = n }),
			Fmt:  " %9d %6.2f %6d",
			Get: func(c Result) []any {
				return []any{c.Sim.Core.Cycles, c.Sim.DRAM.AchievedBandwidth(), c.Sim.DRAM.WriteDrains}
			},
		})
	}
	return s.Run(r)
}

// example:end

func TestSweepExampleMatchesDesign(t *testing.T) {
	src, err := os.ReadFile("sweep_example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(src), "// example:begin\n")
	example, _, ok := strings.Cut(rest, "\n// example:end")
	if !ok {
		t.Fatal("example markers missing")
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), example) {
		t.Error("DESIGN.md's \"Sweeps as data\" example is not the WQSweep compiled here; update one from the other")
	}
	code := 0
	for _, line := range strings.Split(example, "\n") {
		if l := strings.TrimSpace(line); l != "" && !strings.HasPrefix(l, "//") {
			code++
		}
	}
	if code > 30 {
		t.Errorf("the example grid sweep is %d non-comment lines; a new sweep should cost at most 30", code)
	}

	// The declaration is all a sweep needs: the driver gives it -j and
	// memo sharing.
	serial, par := mshrRunner(), mshrRunner()
	par.Workers = 4
	cells := 0
	serial.Progress = func(SimKey) { cells++ }
	want := WQSweep(serial).Render()
	if got := WQSweep(par).Render(); got != want {
		t.Errorf("example sweep diverged under -j 4\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if cells != 12 {
		t.Errorf("example sweep simulated %d cells, want 2 kernels × 2 profiles × 3 thresholds", cells)
	}
	if !strings.Contains(want, "wq12") || !strings.Contains(want, "motionsearch   hbm") {
		t.Errorf("render lacks a column or row:\n%s", want)
	}
}
