package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"RowHits":         "row_hits",
		"StallROB":        "stall_rob",
		"ByKind":          "by_kind",
		"D3Words":         "d3_words",
		"Accesses":        "accesses",
		"QueueMax":        "queue_max",
		"FirstArrival":    "first_arrival",
		"MSHRs":           "mshrs",
		"DroppedMSHR":     "dropped_mshr",
		"DroppedWQ":       "dropped_wq",
		"PrefetchUseless": "prefetch_useless",
		"FlushedReqs":     "flushed_reqs",
		"OccMax":          "occ_max",
		"ID":              "id",
	}
	for in, want := range cases {
		if got := SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryAddStruct(t *testing.T) {
	type inner struct {
		Hits    uint64
		Misses  uint64
		ByKind  [3]uint64
		Cycles  int64
		OccMax  int
		Wait    *Histogram
		NilHist *Histogram
		hidden  uint64
	}
	st := inner{Hits: 7, Misses: 3, Cycles: 99, OccMax: 5, Wait: NewHistogram(), hidden: 1}
	st.ByKind[1] = 11
	st.Wait.Observe(4)
	r := NewRegistry()
	r.AddStruct("x", &st)

	snap := r.Snapshot()
	if got := snap.Counters["x.hits"]; got != 7 {
		t.Errorf("x.hits = %d, want 7", got)
	}
	if got := snap.Counters["x.by_kind.1"]; got != 11 {
		t.Errorf("x.by_kind.1 = %d, want 11", got)
	}
	if got := snap.Gauges["x.cycles"]; got != 99 {
		t.Errorf("x.cycles = %d, want 99", got)
	}
	if got := snap.Gauges["x.occ_max"]; got != 5 {
		t.Errorf("x.occ_max = %d, want 5", got)
	}
	if h, ok := snap.Hists["x.wait"]; !ok || h.Count != 1 {
		t.Errorf("x.wait hist = %+v, want registered with count 1", h)
	}
	if _, ok := snap.Hists["x.nil_hist"]; ok {
		t.Error("nil histogram field should not register")
	}
	if _, ok := snap.Counters["x.hidden"]; ok {
		t.Error("unexported field should not register")
	}

	// Live wrapping: mutate the struct, the next snapshot sees it.
	st.Hits = 100
	if got := r.Snapshot().Counters["x.hits"]; got != 100 {
		t.Errorf("after mutation x.hits = %d, want 100", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("a.b", func() int64 { return 0 })
}

func TestRegistryUnsupportedFieldPanics(t *testing.T) {
	type bad struct{ Name string }
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unsupported field type did not panic")
		}
	}()
	r.AddStruct("bad", &bad{})
}

func TestSnapshotHooksRun(t *testing.T) {
	r := NewRegistry()
	var derived uint64
	r.Counter("d", func() uint64 { return derived })
	r.OnSnapshot(func() { derived = 42 })
	if got := r.Snapshot().Counters["d"]; got != 42 {
		t.Errorf("hooked counter = %d, want 42", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last", func() uint64 { return 1 })
		r.Counter("a.first", func() uint64 { return 2 })
		r.Gauge("m.mid", func() int64 { return -3 })
		h := NewHistogram()
		h.Observe(10)
		h.Observe(1000)
		r.Hist("h.lat", h)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("snapshots of identical registries differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// Round-trips as valid JSON with the three taxonomy keys.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	for _, k := range []string{"counters", "gauges", "histograms"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("snapshot JSON missing %q", k)
		}
	}
	// Keys marshal sorted.
	i1 := strings.Index(b1.String(), "a.first")
	i2 := strings.Index(b1.String(), "z.last")
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("counter keys not in sorted order: a.first@%d z.last@%d", i1, i2)
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two", func() uint64 { return 2 })
	r.Counter("a.one", func() uint64 { return 1 })
	s := r.Snapshot().String()
	if !strings.Contains(s, "a.one") || !strings.Contains(s, "b.two") {
		t.Fatalf("String() missing names:\n%s", s)
	}
	if strings.Index(s, "a.one") > strings.Index(s, "b.two") {
		t.Errorf("String() not sorted:\n%s", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1}, // [1,1]
		{2, 2}, // [2,3]
		{3, 2},
		{4, 3}, // [4,7]
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(math.MaxInt64)
	h.Observe(-5)
	h.Observe(1)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Min != -5 || s.Max != math.MaxInt64 {
		t.Errorf("min/max = %d/%d, want -5/%d", s.Min, s.Max, int64(math.MaxInt64))
	}
	// Sum counts only positive observations: MaxInt64 + 1.
	if s.Sum != uint64(math.MaxInt64)+1 {
		t.Errorf("sum = %d, want %d", s.Sum, uint64(math.MaxInt64)+1)
	}
	// The <=0 bucket holds the 0 and the -5; bucket [1,1] holds the 1;
	// the top bucket holds MaxInt64 with an inclusive Hi of MaxInt64.
	var zero, top HistBucket
	for _, b := range s.Buckets {
		if b.Lo == 0 && b.Hi == 0 {
			zero = b
		}
		if b.Count > 0 && b.Hi == math.MaxInt64 {
			top = b
		}
	}
	if zero.Count != 2 {
		t.Errorf("<=0 bucket count = %d, want 2", zero.Count)
	}
	if top.Count != 1 || top.Lo != int64(1)<<62 {
		t.Errorf("top bucket = %+v, want count 1 lo 2^62", top)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 {
		t.Error("nil histogram count != 0")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
}

func TestHistogramQuantileMean(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket [8,15]
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // bucket [64,127]
	}
	s := h.Snapshot()
	if m := s.Mean(); m != 19 {
		t.Errorf("mean = %v, want 19", m)
	}
	if q := s.Quantile(0.50); q != 15 {
		t.Errorf("p50 = %d, want 15 (upper edge of [8,15])", q)
	}
	// p95 lands in the [64,127] bucket, clamped to the observed max.
	if q := s.Quantile(0.95); q != 100 {
		t.Errorf("p95 = %d, want 100 (bucket edge clamped to max)", q)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Errorf("q0 = %d, want min %d", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("q1 = %d, want max %d", q, s.Max)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}
