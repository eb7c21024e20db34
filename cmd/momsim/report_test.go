package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The report goldens under testdata/report were recorded from the
// stdout of a build of commit 42493d4 — the last with a solo run path of
// its own beside the tenant group — so they hold the one run path to
// what both of the old ones printed. After a deliberate report change:
//
//	go test ./cmd/momsim -run TestReportMatchesGolden -update-golden
//
// then read the diff of testdata/report in the PR and say why each
// changed line changed.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite cmd/momsim/testdata/report from the current report")

// reportLines are the pinned command lines: the default machine, the
// three front ends built differently (banked L1 ports, ideal memory,
// address translation), the whole non-blocking backend, a multi-tenant
// run, and the colo and color placements over tenant groups on the bank
// mapping (the only mapping under which coloring finds a page on the
// channel it asks for; on the line mapping it is refused). stats also pins the line's -statsjson export.
// Every line runs the wheel; the _wheel suffix of three names is only a
// name.
var reportLines = []struct {
	name  string
	args  string
	stats bool
}{
	{name: "gsmencode", args: "-bench gsmencode", stats: true},
	{name: "mmx_multibanked", args: "-isa mmx -mem multibanked"},
	{name: "ideal", args: "-mem ideal"},
	{name: "sdram_mshr16_pf8_rphistory_wheel", args: "-dram sdram -mshr 16 -pf 8 -rp history -cpistack"},
	{name: "tenants2_qos_vafirst", args: "-bench motionsearch -dram sdram -tenants 2 -qos -va first -cpistack", stats: true},
	{name: "tenants3_bank_vacolo_wheel", args: "-bench motionsearch -dram sdram -dmap bank -tenants 3 -va colo", stats: true},
	{name: "tenants2_bank_vacolor_wheel", args: "-bench motionsearch -dram sdram -dmap bank -tenants 2 -va color"},
}

// TestReportMatchesGolden runs each pinned command line through run, the
// function main calls, and holds its report (the host-dependent engine:
// line and the export's own "stats: wrote" line aside) and its
// -statsjson names and values (host.* aside) to the goldens.
func TestReportMatchesGolden(t *testing.T) {
	for _, tc := range reportLines {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseLine(strings.Fields(tc.args)...)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := resolve(o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stats {
				rc.StatsJSON = filepath.Join(t.TempDir(), "stats.json")
			}
			var out bytes.Buffer
			if err := run(&out, rc); err != nil {
				t.Fatal(err)
			}
			var report strings.Builder
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.HasPrefix(line, "engine:") && !strings.HasPrefix(line, "stats: wrote") {
					report.WriteString(line)
				}
			}
			golden(t, filepath.Join("testdata", "report", tc.name+".txt"), report.String())
			if tc.stats {
				golden(t, filepath.Join("testdata", "report", tc.name+".stats.json"), hostless(t, rc.StatsJSON))
			}
		})
	}
}

// hostless reads a -statsjson export and writes it back without the
// host.* gauges, which change from run to run.
func hostless(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap stats.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "host.") {
			delete(snap.Gauges, name)
		}
	}
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// golden holds got to the file at path, or rewrites the file under
// -update-golden.
func golden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (%v); generate it with -update-golden", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n  golden %q\n  got    %q", path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: got %d lines, golden has %d", path, len(gl), len(wl))
}
