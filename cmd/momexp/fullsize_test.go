package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// digestPath is the witness of the issue scan PR 15 deleted: sha256 of
// momexp's full-size stdout, recorded with the last build whose step
// engine re-walked every unissued window entry every cycle.
const digestPath = "../../internal/experiments/testdata/fullsize_digests.txt"

// TestFullSizeMatchesNaiveScanDigests reruns the default evaluation and
// every sweep selector at full size, under both engines, and holds the
// bytes they print to the frozen digests. The wheel≡step suites compare
// the event-driven scan with itself (skipping on against skipping off);
// this compares it with the scan it replaced, on the inputs people
// actually run — golden_stats.txt and sweeps_small.txt, written by the
// same naive scan, do so at test size.
func TestFullSizeMatchesNaiveScanDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size evaluation: seconds per engine")
	}
	fh, err := os.Open(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	type digest struct{ sum, name string }
	var want []digest
	for sc := bufio.NewScanner(fh); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			want = append(want, digest{f[0], f[1]})
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s lists no digests", digestPath)
	}
	for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
		// One runner per engine, as one momexp process has: selectors
		// after the first find most of their cells memoized.
		r := experiments.NewRunner()
		r.Engine, r.Workers = mode, experiments.AutoWorkers(0)
		x := &session{r: r}
		for _, d := range want {
			run := func() error { return runDefault(x) }
			if d.name != "default" {
				sel := selectorByName(d.name)
				if sel == nil {
					t.Fatalf("%s names -%s, which momexp does not have", digestPath, d.name)
				}
				run = func() error { return sel.run(x, "") }
			}
			out := captureStdout(t, run)
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != d.sum {
				t.Errorf("%v engine, %s: stdout sha256 %s, frozen naive-scan digest %s (%d bytes printed)",
					mode, d.name, got, d.sum, len(out))
			}
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
