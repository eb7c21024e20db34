package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
)

// The sweep golden file pins every rendered sweep table byte for byte
// over the small suites the shape tests use. The Test*SweepShape tests
// only check lengths, signs and substrings; this is the net that lets
// the sweep machinery be rewritten: a refactor is done when the file
// has not changed.
//
// Update procedure — ONLY when a PR moves a sweep number or a table
// layout on purpose:
//
//	go test ./internal/experiments -run TestSweepRendersMatchGolden -update-golden
//
// then read the diff of testdata/sweeps_small.txt in the PR and say why
// each changed line changed.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite internal/experiments/testdata/sweeps_small.txt from the current sweeps")

const sweepGoldenPath = "testdata/sweeps_small.txt"

// renderAllSweeps renders the nine sweep tables (the CPI sweep as text
// and as its JSON report) on fresh runners under one engine.
func renderAllSweeps(t *testing.T, mode engine.Mode) string {
	t.Helper()
	on := func(r *Runner) *Runner { r.Engine = mode; return r }
	var b strings.Builder
	section := func(name, body string) {
		b.WriteString("=== " + name + " ===\n" + body)
	}
	paper := on(smallRunner())
	section("dramsweep", RenderDRAMSweep(DRAMSweep(paper)))
	section("channelscaling", RenderChannelScaling(DRAMChannelScaling(paper)))
	stream := on(mshrRunner())
	section("mshrsweep", RenderMSHRSweep(MSHRSweep(stream)))
	section("pfsweep", RenderPFSweep(PFSweep(stream)))
	section("rpsweep", RenderRPSweep(RPSweep(stream)))
	section("ifsweep", RenderIFSweep(IFSweep(stream)))
	section("vasweep", RenderVASweep(VASweep(stream)))
	section("latdist", RenderLatDist(LatDist(on(latDistRunner()))))
	rep := CPISweep(on(cpiSweepRunner()), "test-small")
	section("cpisweep", RenderCPISweep(rep))
	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("cpisweep JSON: %v", err)
	}
	section("cpisweep.json", js.String())
	return b.String()
}

// TestSweepRendersMatchGolden diffs every sweep's rendered output, on
// both engines, against the checked-in file.
func TestSweepRendersMatchGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(sweepGoldenPath, []byte(renderAllSweeps(t, engine.Step)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", sweepGoldenPath)
		return
	}
	want, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatalf("sweep golden file missing (%v); generate it with -update-golden", err)
	}
	for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
		got := renderAllSweeps(t, mode)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%v engine: line %d differs\n  golden   %q\n  rendered %q", mode, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%v engine: rendered %d lines, golden has %d", mode, len(gl), len(wl))
	}
}
