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
// StallSweep crosses MSHR file sizes with the streaming kernels and
// both timing profiles, counting the misses that found the file full.
func StallSweep(r *Runner) *Table {
	s := &Sweep{
		Title: "MSHR stall sweep — file size (MOM+3D, vector cache + 3D, sdram/line/frfcfs/mshr<n>)",
		Head:  fmt.Sprintf("%-14s %-4s", "benchmark", "prof"),
		Rows:  benchProfRows(MSHRBenches, MSHRProfiles, dram.Knobs{}),
		Note:  "note: full counts the misses that found every MSHR occupied.\n",
	}
	for _, n := range []int{4, 8, 16} {
		s.Cols = append(s.Cols, Col{
			Head: fmt.Sprintf(" %9s %5s %6s", fmt.Sprintf("mshr%d", n), "MLP", "full"),
			Spec: at(func(k *dram.Knobs) { k.MSHRs = n }),
			Fmt:  " %9d %5.2f %6d",
			Get: func(c Result) []any {
				return []any{c.Sim.Core.Cycles, c.Sim.MSHR.MLP(), c.Sim.MSHR.FullStalls}
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
		t.Error("DESIGN.md's \"Sweeps as data\" example is not the StallSweep compiled here; update one from the other")
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
	want := StallSweep(serial).Render()
	if got := StallSweep(par).Render(); got != want {
		t.Errorf("example sweep diverged under -j 4\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if cells != 12 {
		t.Errorf("example sweep simulated %d cells, want 2 kernels × 2 profiles × 3 file sizes", cells)
	}
	if !strings.Contains(want, "mshr8") || !strings.Contains(want, "motionsearch   hbm") {
		t.Errorf("render lacks a column or row:\n%s", want)
	}
}
