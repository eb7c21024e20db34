package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// This file emits the machine-readable benchmark report (BENCH_PR6.json):
// the full stats-registry snapshot of every configuration in the golden
// matrix — the same bench × ISA × backend cross internal/core pins in
// testdata/golden_stats.txt. Keys are spelled identically to the golden
// table's ("bench/ISA/backend-spec"), so any consumer can join the two,
// and TestBenchReportMatchesGolden holds the JSON's counters to the
// pinned rows bit for bit.

// BenchSpecs are the backend configurations the report crosses; they
// mirror goldenSpecs in internal/core/golden_test.go.
var BenchSpecs = []string{
	"fixed",
	"sdram/line/frfcfs",
	"sdram/line/frfcfs/mshr8",
}

// BenchReport is the exported document: one registry snapshot per
// golden-matrix configuration.
type BenchReport struct {
	Suite   string                    `json:"suite"`
	Configs map[string]stats.Snapshot `json:"configs"`
}

// GoldenSuite is the scaled-down benchmark set the golden table was
// measured over (the full-size kernels would take minutes in CI).
func GoldenSuite() []kernels.Benchmark {
	return []kernels.Benchmark{
		kernels.JPEGEncode(kernels.SmallJPEGEncConfig()),
		kernels.JPEGDecode(kernels.SmallJPEGDecConfig()),
		kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()),
		kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()),
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
}

// benchVariants is the ISA × memory-system cross of the golden matrix.
var benchVariants = []struct {
	v    kernels.Variant
	kind core.MemKind
}{
	{kernels.MOM3D, core.MemVectorCache3D},
	{kernels.MOM, core.MemVectorCache},
	{kernels.MMX, core.MemMultiBanked},
}

// goldenMatrix lists the golden matrix's cells over a suite: every
// benchmark × ISA/memory-system variant × backend of BenchSpecs.
func goldenMatrix(benches []string) []SimKey {
	var cells []SimKey
	for _, bench := range benches {
		for _, vk := range benchVariants {
			for _, spec := range BenchSpecs {
				cells = append(cells, SimKey{Bench: bench, Variant: vk.v, Mem: vk.kind, L2Lat: baseLat, DRAM: spec})
			}
		}
	}
	return cells
}

// ComputeBenchReport runs the golden matrix over r's suite — momexp
// passes a runner over GoldenSuite, labelled "golden-small" — on r's
// engine and workers, and collects every configuration's registry
// snapshot. The snapshots live in a memo of their own: no other result
// carries a registry.
func ComputeBenchReport(r *Runner, suite string) *BenchReport {
	cells := goldenMatrix(r.Benchmarks())
	snaps := map[SimKey]*stats.Snapshot{}
	prewarm(r, cells, snaps, snapshot)
	rep := &BenchReport{Suite: suite, Configs: map[string]stats.Snapshot{}}
	for _, k := range cells {
		rep.Configs[fmt.Sprintf("%s/%s/%s", k.Bench, k.Variant, k.DRAM)] = *recall(r, snaps, k, snapshot)
	}
	return rep
}

// snapshot builds and runs one cell and reads its whole registry — the
// package's only registry.
func snapshot(r *Runner, k SimKey) *stats.Snapshot {
	g := r.machine(k)
	g.Run()
	reg := stats.NewRegistry()
	g.Register(reg)
	s := reg.Snapshot()
	g.Release()
	return &s
}

// WriteJSON writes the report as indented, deterministically-ordered
// JSON (encoding/json sorts map keys).
func (rep *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
