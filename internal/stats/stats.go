// Package stats is the simulator's observability layer: a registry
// mapping hierarchical stat names ("dram.row_hits",
// "vmem.mshr.merges", ...) to the live counters of every stat-bearing
// subsystem, log-2-bucketed latency histograms, and a cycle-stamped
// event tracer exporting Chrome trace-event JSON.
//
// The design keeps the hot paths untouched: every subsystem keeps its
// plain Stats struct and its plain field increments; registration
// wraps the fields after construction (AddStruct walks them by
// reflection), so the only cost of the registry is paid at Snapshot
// time. Histograms and tracers are nil-safe — Observe and Emit on a
// nil receiver are no-ops — so a subsystem hook on a disabled feature
// costs exactly one nil check.
//
// Snapshot produces a deterministic JSON document (map keys marshal
// sorted), which is what makes per-PR perf trajectories
// machine-diffable: momexp's -statsjson writes the pinned golden
// matrix as BENCH_*.json, and the golden-stats regression net in
// internal/core reads its rows *through* a snapshot, proving
// registration is complete and bit-identical to the hand-threaded
// counters.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"unicode"
)

// Registry maps hierarchical names to live stat sources. It is not
// safe for concurrent use, matching the rest of the simulator.
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() int64
	hists    map[string]*Histogram
	hooks    []func() // run at the start of every Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]func() uint64{},
		gauges:   map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// checkName rejects duplicate or empty registrations loudly: a
// collision means two subsystems claimed the same name and one of them
// would silently shadow the other in every export.
func (r *Registry) checkName(name string) {
	if name == "" {
		panic("stats: empty stat name")
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("stats: duplicate registration of %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("stats: duplicate registration of %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("stats: duplicate registration of %q", name))
	}
}

// Counter registers a monotonic counter read through get.
func (r *Registry) Counter(name string, get func() uint64) {
	r.checkName(name)
	r.counters[name] = get
}

// Gauge registers a signed value read through get (cycle bounds,
// high-water marks).
func (r *Registry) Gauge(name string, get func() int64) {
	r.checkName(name)
	r.gauges[name] = get
}

// Hist registers an existing histogram under name.
func (r *Registry) Hist(name string, h *Histogram) {
	if h == nil {
		panic(fmt.Sprintf("stats: nil histogram registered as %q", name))
	}
	r.checkName(name)
	r.hists[name] = h
}

// OnSnapshot registers a hook run at the start of every Snapshot, for
// stats that are derived rather than live (e.g. the prefetcher's
// useless count, folded in from the L2's eviction accounting).
func (r *Registry) OnSnapshot(fn func()) { r.hooks = append(r.hooks, fn) }

// AddStruct registers every exported field of the struct pointed to by
// v under prefix: uint64 fields become counters, int/int64 fields
// become gauges, [N]uint64 arrays become one counter per index
// ("prefix.name.i"), non-nil *Histogram fields register as histograms,
// and nested struct fields recurse under "prefix.name" (how core.Stats
// registers its CPI stack as core.cpi.*). Field names convert to
// snake_case ("RowHits" → "row_hits"). Any other exported field type
// panics — a new stat field must either fit the taxonomy or extend it
// here, so silent stat drift is impossible.
func (r *Registry) AddStruct(prefix string, v any) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("stats: AddStruct needs a non-nil struct pointer, got %T", v))
	}
	rv = rv.Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "." + SnakeCase(f.Name)
		fv := rv.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64:
			p := fv.Addr().Interface().(*uint64)
			r.Counter(name, func() uint64 { return *p })
		case reflect.Int64:
			p := fv.Addr().Interface().(*int64)
			r.Gauge(name, func() int64 { return *p })
		case reflect.Int:
			p := fv.Addr().Interface().(*int)
			r.Gauge(name, func() int64 { return int64(*p) })
		case reflect.Array:
			if f.Type.Elem().Kind() != reflect.Uint64 {
				panic(fmt.Sprintf("stats: unsupported array field %s (%s)", name, f.Type))
			}
			for j := 0; j < fv.Len(); j++ {
				p := fv.Index(j).Addr().Interface().(*uint64)
				r.Counter(fmt.Sprintf("%s.%d", name, j), func() uint64 { return *p })
			}
		case reflect.Pointer:
			h, ok := fv.Interface().(*Histogram)
			if !ok {
				panic(fmt.Sprintf("stats: unsupported pointer field %s (%s)", name, f.Type))
			}
			if h != nil {
				r.Hist(name, h)
			}
		case reflect.Struct:
			r.AddStruct(name, fv.Addr().Interface())
		default:
			panic(fmt.Sprintf("stats: unsupported field %s (%s)", name, f.Type))
		}
	}
}

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot is one deterministic reading of a registry: plain maps so
// encoding/json emits keys in sorted order, making two snapshots of
// the same state byte-identical.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]int64        `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"histograms"`
}

// Snapshot reads every registered source.
func (r *Registry) Snapshot() Snapshot {
	for _, fn := range r.hooks {
		fn()
	}
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, get := range r.counters {
		s.Counters[n] = get()
	}
	for n, get := range r.gauges {
		s.Gauges[n] = get()
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Map keys marshal
// sorted, so the output is deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the snapshot as an aligned name/value listing, sorted
// by name — the pretty-printed form `make stats` shows.
func (s Snapshot) String() string {
	type row struct{ name, val string }
	rows := make([]row, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for n, v := range s.Counters {
		rows = append(rows, row{n, fmt.Sprintf("%d", v)})
	}
	for n, v := range s.Gauges {
		rows = append(rows, row{n, fmt.Sprintf("%d", v)})
	}
	for n, h := range s.Hists {
		rows = append(rows, row{n, h.String()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	width := 0
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %s\n", width, r.name, r.val)
	}
	return b.String()
}

// SnakeCase converts a Go field name to the registry's snake_case
// spelling: "RowHits" → "row_hits", "StallROB" → "stall_rob",
// "D3Words" → "d3_words".
func SnakeCase(s string) string {
	runes := []rune(s)
	var b strings.Builder
	for i, r := range runes {
		if i > 0 && unicode.IsUpper(r) {
			prev := runes[i-1]
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			// A lone trailing 's' after an acronym is a plural
			// ("MSHRs" → "mshrs"), not a new word.
			plural := i+2 == len(runes) && runes[i+1] == 's'
			if unicode.IsLower(prev) || unicode.IsDigit(prev) ||
				(unicode.IsUpper(prev) && nextLower && !plural) {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
