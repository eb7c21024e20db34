package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/kernels"
)

// smallRunner builds a runner over test-scale benchmarks so the full
// experiment matrix stays fast.
func smallRunner() *Runner {
	return NewRunnerWith([]kernels.Benchmark{
		kernels.JPEGEncode(kernels.SmallJPEGEncConfig()),
		kernels.JPEGDecode(kernels.SmallJPEGDecConfig()),
		kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()),
		kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()),
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
	})
}

func TestSimMemoization(t *testing.T) {
	r := smallRunner()
	calls := 0
	r.Progress = func(SimKey) { calls++ }
	a := r.MOMIdeal("gsmencode")
	b := r.MOMIdeal("gsmencode")
	if a != b {
		t.Error("identical keys must return the memoized result")
	}
	if calls != 1 {
		t.Errorf("progress calls = %d, want 1", calls)
	}
}

// TestCellResultDoesNotPinTheMachine: the memo keeps every result for
// the runner's life, so a result — its stats copies, DRAM shards and
// histograms — must keep nothing of its machine reachable, its memory
// backend included, for a solo cell over flat memory or a DRAM part
// and a mix alike.
func TestCellResultDoesNotPinTheMachine(t *testing.T) {
	r := mshrRunner()
	for _, key := range []SimKey{
		{Bench: "gsmencode", Variant: kernels.MOM, Mem: core.MemVectorCache, L2Lat: baseLat},
		bestKey("motionsearch", "sdram/line/frfcfs/mshr8/pf8d2/va"),
		bestKey("motionsearch+gsmencode", ifBaseSpec+"/tn2/mshr8"),
	} {
		g := r.machine(key)
		freed := make(chan string, 2)
		runtime.SetFinalizer(g.Mem(0), func(*core.MemSystem) { freed <- "memory system" })
		runtime.SetFinalizer(g.Mem(0).DRAM(), func(dram.Backend) { freed <- "backend" })
		res := r.result(key, g)
		g = nil
		left := map[string]bool{"memory system": true, "backend": true}
		for i := 0; i < 10 && len(left) > 0; i++ {
			runtime.GC()
			select {
			case name := <-freed:
				delete(left, name)
			case <-time.After(10 * time.Millisecond):
			}
		}
		for name := range left {
			t.Errorf("%q: the %s is still reachable from the result", key.DRAM, name)
		}
		runtime.KeepAlive(res)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := smallRunner()
	f := Figure3(r)
	if len(f.Series) != 2 || len(f.Series[0].Values) != 5 {
		t.Fatalf("figure shape: %d series", len(f.Series))
	}
	for _, s := range f.Series {
		for i, v := range s.Values {
			if v < 0.99 {
				t.Errorf("%s/%s: slowdown %.3f < 1 (realistic memory beat ideal)",
					s.Name, f.Benchmarks[i], v)
			}
		}
	}
	if !strings.Contains(f.Render(), "Figure 3") {
		t.Error("render must carry the figure id")
	}
}

func TestFigure6Shape(t *testing.T) {
	r := smallRunner()
	f := Figure6(r)
	// Multi-banked delivers exactly one word per access by construction.
	for _, v := range f.Series[0].Values {
		if v != 1 {
			t.Errorf("multi-banked effective bandwidth = %v, want 1", v)
		}
	}
	// 3D must match or beat the plain vector cache everywhere.
	for i := range f.Benchmarks {
		if f.Series[2].Values[i]+1e-9 < f.Series[1].Values[i] {
			t.Errorf("%s: 3D bandwidth %.2f below vector cache %.2f",
				f.Benchmarks[i], f.Series[2].Values[i], f.Series[1].Values[i])
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	r := smallRunner()
	f := Figure7(r)
	vals := f.Series[0].Values
	for i, bench := range f.Benchmarks {
		switch bench {
		case "jpegdecode":
			if vals[i] != 0 {
				t.Errorf("jpegdecode traffic reduction = %.1f%%, want 0", vals[i])
			}
		case "mpeg2encode", "gsmencode":
			if vals[i] <= 20 {
				t.Errorf("%s: traffic reduction %.1f%%, want the overlap benchmarks well above 20%%",
					bench, vals[i])
			}
		}
		if vals[i] < -1 || vals[i] > 100 {
			t.Errorf("%s: reduction %.1f%% out of range", bench, vals[i])
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	r := smallRunner()
	f := Figure9(r)
	if len(f.Series) != 5 {
		t.Fatal("figure 9 has five configurations")
	}
	idx := map[string]int{}
	for i, b := range f.Benchmarks {
		idx[b] = i
	}
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Values
	}
	// The paper's central claims, as orderings:
	// (1) 3D solves mpeg2encode's memory problem.
	me := idx["mpeg2encode"]
	if series["MOM+3D vcache"][me] >= series["MOM vector cache"][me] {
		t.Error("3D must improve mpeg2encode over the plain vector cache")
	}
	// (2) jpegdecode gains nothing from 3D.
	jd := idx["jpegdecode"]
	if series["MOM+3D vcache"][jd] != series["MOM vector cache"][jd] {
		t.Error("jpegdecode must be unaffected by 3D")
	}
	// (3) On average, 3D beats both realistic MOM memories.
	if mean(series["MOM+3D vcache"]) >= mean(series["MOM vector cache"]) {
		t.Error("3D must beat the vector cache on average")
	}
}

func TestFigure10Shape(t *testing.T) {
	r := smallRunner()
	f := Figure10(r)
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Values
	}
	// Execution time must not decrease with L2 latency.
	for i := range f.Benchmarks {
		if series["MOM @60"][i] < series["MOM @40"][i] || series["MOM @40"][i] < series["MOM @20"][i] {
			t.Errorf("%s: MOM times not monotone in latency", f.Benchmarks[i])
		}
	}
	// The latency-robustness claim on the flagship benchmark: at 60
	// cycles of L2 latency, the 3D build remains faster in absolute
	// terms (both series share the MOM@20 normalization).
	for i, b := range f.Benchmarks {
		if b != "mpeg2encode" {
			continue
		}
		if series["MOM+3D @60"][i] >= series["MOM @60"][i] {
			t.Errorf("mpeg2encode @60: 3D time %.2f not below MOM %.2f",
				series["MOM+3D @60"][i], series["MOM @60"][i])
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	r := smallRunner()
	f := Figure11(r)
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Values
	}
	for i, bench := range f.Benchmarks {
		if series["MOM multi-banked"][i] <= 0 {
			t.Errorf("%s: zero power", bench)
		}
		// The 3D RF share must be a small fraction of its total.
		if series["(3D RF share)"][i] > 0.25*series["MOM+3D vcache"][i] {
			t.Errorf("%s: 3D RF power share too large", bench)
		}
	}
	// Average: vector cache below multi-banked; 3D below vector cache.
	if mean(series["MOM vector cache"]) >= mean(series["MOM multi-banked"]) {
		t.Error("vector cache must consume less than multi-banked on average")
	}
	if mean(series["MOM+3D vcache"]) >= mean(series["MOM vector cache"]) {
		t.Error("3D must consume less than the vector cache on average")
	}
}

func TestTable1Shape(t *testing.T) {
	r := smallRunner()
	rows := Table1(r)
	if len(rows) != 5 {
		t.Fatal("five benchmarks")
	}
	for _, row := range rows {
		if row.MOMDim1 < 1 || row.MOMDim1 > 8 || row.MOMDim2 < 1 || row.MOMDim2 > 16 {
			t.Errorf("%s: implausible dims %+v", row.Bench, row)
		}
		if row.Bench == "jpegdecode" && row.Has3D {
			t.Error("jpegdecode must have no third dimension")
		}
		if row.Bench == "gsmencode" && (!row.Has3D || row.D3Dim3 < 2) {
			t.Errorf("gsmencode: third dimension %.1f, want the deepest reuse", row.D3Dim3)
		}
	}
	if !strings.Contains(RenderTable1(rows), "gsmencode") {
		t.Error("render must list benchmarks")
	}
}

func TestTable2And3Render(t *testing.T) {
	t2 := Table2()
	for _, want := range []string{"fetch rate", "graduation window", "1x4", "n/a"} {
		if !strings.Contains(t2, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
	t3 := Table3()
	for _, want := range []string{"2654208", "1966080", "4646464", "1.50"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	r := smallRunner()
	rows := Table4(r)
	var sumVC, sum3D uint64
	for _, row := range rows {
		if row.MultiBanked < row.VectorCache {
			t.Errorf("%s: multi-banked activity (%d) below vector cache (%d)",
				row.Bench, row.MultiBanked, row.VectorCache)
		}
		if row.VC3D > row.VectorCache {
			t.Errorf("%s: 3D activity (%d) above vector cache (%d)",
				row.Bench, row.VC3D, row.VectorCache)
		}
		sumVC += row.VectorCache
		sum3D += row.VC3D
	}
	if sum3D >= sumVC {
		t.Error("3D must reduce total L2 activity")
	}
	if !strings.Contains(RenderTable4(rows), "Table 4") {
		t.Error("render header missing")
	}
}

func TestHeadline(t *testing.T) {
	r := smallRunner()
	h := ComputeHeadline(r)
	if h.AvgSpeedupPct <= 0 {
		t.Errorf("3D average speedup %.1f%%, must be positive", h.AvgSpeedupPct)
	}
	if h.AvgL2PowerSavePct <= 0 {
		t.Errorf("L2 power saving %.1f%%, must be positive", h.AvgL2PowerSavePct)
	}
	if h.AreaOverheadPct < 45 || h.AreaOverheadPct > 55 {
		t.Errorf("area overhead %.1f%%, want ~50%%", h.AreaOverheadPct)
	}
	if !strings.Contains(h.Render(), "speedup") {
		t.Error("headline render")
	}
}
