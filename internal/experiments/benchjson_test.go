package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenTablePath reaches the pinned table internal/core regenerates
// with -update-golden; the benchmark report must agree with it row for
// row, which is what makes BENCH_PR6.json trustworthy as a published
// artifact.
const goldenTablePath = "../core/testdata/golden_stats.txt"

type goldenCounts struct {
	Cycles    int64
	Committed uint64
	VMMisses  uint64
	DRAMReqs  uint64
}

func loadGoldenTable(t *testing.T) map[string]goldenCounts {
	t.Helper()
	fh, err := os.Open(goldenTablePath)
	if err != nil {
		t.Fatalf("golden table: %v", err)
	}
	defer fh.Close()
	out := map[string]goldenCounts{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var g goldenCounts
		if _, err := fmt.Sscanf(line, "%s cycles=%d committed=%d vmisses=%d dramreqs=%d",
			&key, &g.Cycles, &g.Committed, &g.VMMisses, &g.DRAMReqs); err != nil {
			t.Fatalf("golden table line %q: %v", line, err)
		}
		out[key] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// benchReportKeys is the pinned key set every configuration snapshot
// must expose — the contract CI checks on the emitted BENCH_PR6.json.
var benchReportKeys = struct {
	counters []string
	gauges   []string
}{
	counters: []string{"core.committed", "vmem.misses", "vmem.accesses", "dram.accesses"},
	gauges:   []string{"core.cycles"},
}

// TestBenchReportMatchesGolden is the acceptance net for the exported
// benchmark report: every golden-table row must appear in the report,
// and the registry-snapshot counters must reproduce the pinned counts
// bit for bit.
func TestBenchReportMatchesGolden(t *testing.T) {
	rep := ComputeBenchReport(NewRunnerWith(GoldenSuite()), "golden-small")
	want := loadGoldenTable(t)
	if len(rep.Configs) != len(want) {
		t.Errorf("report has %d configurations, golden table has %d rows", len(rep.Configs), len(want))
	}
	for key, g := range want {
		snap, ok := rep.Configs[key]
		if !ok {
			t.Errorf("%s: missing from the report", key)
			continue
		}
		if got := snap.Gauge("core.cycles"); got != g.Cycles {
			t.Errorf("%s: cycles = %d, golden %d", key, got, g.Cycles)
		}
		if got := snap.Counter("core.committed"); got != g.Committed {
			t.Errorf("%s: committed = %d, golden %d", key, got, g.Committed)
		}
		if got := snap.Counter("vmem.misses"); got != g.VMMisses {
			t.Errorf("%s: vmem.misses = %d, golden %d", key, got, g.VMMisses)
		}
		if got := snap.Counter("dram.accesses"); got != g.DRAMReqs {
			t.Errorf("%s: dram.accesses = %d, golden %d", key, got, g.DRAMReqs)
		}
		for _, name := range benchReportKeys.counters {
			if _, ok := snap.Counters[name]; !ok {
				t.Errorf("%s: snapshot lacks pinned counter %q", key, name)
			}
		}
		for _, name := range benchReportKeys.gauges {
			if _, ok := snap.Gauges[name]; !ok {
				t.Errorf("%s: snapshot lacks pinned gauge %q", key, name)
			}
		}
	}
	// The mshr8 configurations must additionally carry the latency
	// histograms the observability layer adds.
	for key, snap := range rep.Configs {
		if !strings.HasSuffix(key, "/mshr8") {
			continue
		}
		for _, h := range []string{"dram.read_wait", "dram.read_service", "vmem.mshr.fill"} {
			if _, ok := snap.Hists[h]; !ok {
				t.Errorf("%s: snapshot lacks histogram %q", key, h)
			}
		}
	}
}

// TestBenchReportJSONRoundTrips pins the document shape: valid JSON,
// deterministic bytes, and the suite/configs envelope a consumer joins
// against the golden table.
func TestBenchReportJSONRoundTrips(t *testing.T) {
	rep := ComputeBenchReport(NewRunnerWith(GoldenSuite()), "golden-small")
	var a, b bytes.Buffer
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteJSON is not deterministic")
	}
	var back struct {
		Suite   string `json:"suite"`
		Configs map[string]struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(a.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Suite != "golden-small" || len(back.Configs) != len(rep.Configs) {
		t.Errorf("round trip lost the envelope: suite %q, %d configs", back.Suite, len(back.Configs))
	}
}
