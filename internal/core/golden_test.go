package core

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// The golden-stats regression net: a pinned table of
// (kernel × ISA × backend spec) → cycle / miss / traffic counts over the
// small benchmark registry, so a future PR cannot silently shift the
// baseline timing model. The table was generated from the tree as of
// PR 3 (before the stream prefetcher landed), which makes it double as
// the prefetch-off equivalence check: every configuration below runs
// with the prefetcher disabled and must keep reproducing the pre-
// prefetcher counts bit for bit.
//
// Update procedure — ONLY when a PR intentionally changes the timing
// model (new scheduler behaviour, a core-model fix, a kernel change):
//
//	go test ./internal/core -run TestGoldenStats -update-golden
//
// then eyeball the diff of internal/core/testdata/golden_stats.txt in
// the PR: every changed row is a baseline shift you are claiming on
// purpose, and the PR description should say why. A row that changed
// when you did not expect it to is the regression this net exists to
// catch — fix the code, not the table.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite internal/core/testdata/golden_stats.txt from the current model")

const goldenPath = "testdata/golden_stats.txt"

// goldenSpecs are the backend configurations the table crosses: the
// seed-equivalent flat backend, the banked SDRAM, and the SDRAM behind
// an 8-entry MSHR file (the non-blocking pipeline).
var goldenSpecs = []string{
	"fixed",
	"sdram/line/frfcfs",
	"sdram/line/frfcfs/mshr8",
}

// goldenRow is one measured configuration.
type goldenRow struct {
	Cycles    int64
	Committed uint64
	VMMisses  uint64
	DRAMReqs  uint64
}

func (g goldenRow) String() string {
	return fmt.Sprintf("cycles=%d committed=%d vmisses=%d dramreqs=%d",
		g.Cycles, g.Committed, g.VMMisses, g.DRAMReqs)
}

// goldenKey names one configuration the way the table file spells it.
func goldenKey(bench string, v kernels.Variant, spec string) string {
	return fmt.Sprintf("%s/%s/%s", bench, v, spec)
}

// measureGolden runs the whole golden matrix and returns key → row.
func measureGolden(t *testing.T) map[string]goldenRow {
	return measureGoldenSpecs(t, func(spec string) string { return spec })
}

// measureGoldenSpecs is measureGolden with the backend spec of each
// configuration passed through transform; rows stay keyed by the
// untransformed spec so the result compares against the checked-in
// table (or a plain measureGolden run) row for row.
func measureGoldenSpecs(t *testing.T, transform func(string) string) map[string]goldenRow {
	t.Helper()
	return measureGoldenEngine(t, transform, engine.Step)
}

// goldenVariants pairs each ISA variant with the memory system the
// golden matrix runs it on.
var goldenVariants = []struct {
	v    kernels.Variant
	kind MemKind
}{
	{kernels.MOM3D, MemVectorCache3D},
	{kernels.MOM, MemVectorCache},
	{kernels.MMX, MemMultiBanked},
}

// measureGoldenEngine additionally selects the simulation engine, so
// the wheel can regenerate the same table through the same registry
// read-out path.
func measureGoldenEngine(t *testing.T, transform func(string) string, mode engine.Mode) map[string]goldenRow {
	t.Helper()
	out := map[string]goldenRow{}
	for _, bm := range equivBenches() {
		for _, vk := range goldenVariants {
			tr := &trace.Trace{}
			bm.Run(vk.v, tr)
			for _, spec := range goldenSpecs {
				backend, knobs, err := dram.ParseSpecFull(transform(spec), 100)
				if err != nil {
					t.Fatalf("spec %q: %v", transform(spec), err)
				}
				cfg := MOMCore()
				if vk.v == kernels.MMX {
					cfg = MMXCore()
				}
				tim := vmem.Timing{L2Latency: 20, MemLatency: 100,
					Backend: backend, MSHRs: knobs.MSHRs}
				ms := NewMemSystem(vk.kind, tim, cfg.Lanes, vk.v == kernels.MMX)
				st := simulateMode(cfg, ms, tr.Insts, mode)
				if sd, ok := backend.(*dram.SDRAM); ok {
					sd.Flush()
				}
				// The rows are read through the stats registry rather
				// than the structs directly: the golden table doubles as
				// the proof that registration is complete and the
				// registered names resolve to the hand-threaded counters
				// bit for bit.
				reg := stats.NewRegistry()
				st.Register(reg)
				ms.Register(reg)
				snap := reg.Snapshot()
				if _, ok := snap.Gauges["core.cycles"]; !ok {
					t.Fatal(`registry snapshot missing "core.cycles"`)
				}
				for _, name := range []string{"core.committed", "vmem.misses", "dram.accesses"} {
					if _, ok := snap.Counters[name]; !ok {
						t.Fatalf("registry snapshot missing %q", name)
					}
				}
				out[goldenKey(bm.Name, vk.v, spec)] = goldenRow{
					Cycles:    snap.Gauges["core.cycles"],
					Committed: snap.Counters["core.committed"],
					VMMisses:  snap.Counters["vmem.misses"],
					DRAMReqs:  snap.Counters["dram.accesses"],
				}
			}
		}
	}
	return out
}

func renderGolden(rows map[string]goldenRow) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Golden simulation statistics — see golden_test.go for the update procedure.\n")
	b.WriteString("# key = bench/ISA/backend-spec; every row is a pinned baseline.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, rows[k])
	}
	return b.String()
}

func loadGolden(t *testing.T) map[string]goldenRow {
	t.Helper()
	fh, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden table missing (%v); generate it with -update-golden", err)
	}
	defer fh.Close()
	out := map[string]goldenRow{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var g goldenRow
		if _, err := fmt.Sscanf(line, "%s cycles=%d committed=%d vmisses=%d dramreqs=%d",
			&key, &g.Cycles, &g.Committed, &g.VMMisses, &g.DRAMReqs); err != nil {
			t.Fatalf("golden table line %q: %v", line, err)
		}
		out[key] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading golden table: %v", err)
	}
	return out
}

// TestGoldenStats measures the whole matrix and compares it against the
// checked-in table row by row.
func TestGoldenStats(t *testing.T) {
	got := measureGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(renderGolden(got)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d rows", goldenPath, len(got))
		return
	}
	want := loadGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden table has %d rows, the matrix measured %d — regenerate with -update-golden", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: configuration no longer measured", key)
			continue
		}
		if g != w {
			t.Errorf("%s:\n  golden   %s\n  measured %s", key, w, g)
		}
	}
}

// TestRowPolicyOpenMatchesGolden pins the rpopen spec token bit-
// identical to the PR 4 model across the whole golden-stats matrix:
// naming the default row policy explicitly must reproduce every pinned
// cycle, commit, miss and request count of the table the sdram rows
// were generated against. (The policy subsystem running its default is
// already covered by TestGoldenStats; this adds the spec-token path.)
func TestRowPolicyOpenMatchesGolden(t *testing.T) {
	want := loadGolden(t)
	got := measureGoldenSpecs(t, func(spec string) string {
		if !strings.HasPrefix(spec, "sdram") {
			return spec // rp tokens are controller knobs; fixed has no banks
		}
		return spec + "/rpopen"
	})
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: configuration not measured", key)
			continue
		}
		if g != w {
			t.Errorf("%s: rpopen diverged from the golden table:\n  golden   %s\n  measured %s", key, w, g)
		}
	}
}
