package trace_test

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// The Recorder must be indistinguishable from the Trace + Stats pair it
// replaces: same stream once materialised (and the stream Compact
// makes of that trace), same statistics (the unexported dimension
// bookkeeping included), for every kernel and variant — through one recorder, so every generation but the first
// runs on reused staging and a reused interning table.
func TestRecorderMatchesTraceAndStats(t *testing.T) {
	var rec trace.Recorder
	for _, bm := range experiments.GoldenSuite() {
		for _, v := range kernels.Variants {
			tr, st := &trace.Trace{}, trace.NewStats()
			bm.Run(v, trace.Multi{tr, st})
			s, folded := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			if len(s.Ops) != tr.Len() {
				t.Fatalf("%s/%s: recorded %d instructions, trace.Trace holds %d", bm.Name, v, len(s.Ops), tr.Len())
			}
			for i, got := range s.All() {
				if got != tr.Insts[i] {
					t.Fatalf("%s/%s: instruction %d materialises as %+v, trace.Trace holds %+v",
						bm.Name, v, i, got, tr.Insts[i])
				}
			}
			if !reflect.DeepEqual(s, trace.Compact(tr.Insts)) {
				t.Errorf("%s/%s: Recorder and Compact build different streams of one trace", bm.Name, v)
			}
			if len(s.Ops) != cap(s.Ops) || len(s.Addrs) != cap(s.Addrs) || len(s.Static) != cap(s.Static) {
				t.Errorf("%s/%s: tables not exact-size: ops %d/%d, addrs %d/%d, static %d/%d", bm.Name, v,
					len(s.Ops), cap(s.Ops), len(s.Addrs), cap(s.Addrs), len(s.Static), cap(s.Static))
			}
			if !reflect.DeepEqual(folded, st) {
				t.Errorf("%s/%s: folded stats differ from a stand-alone trace.Stats\nfolded:\n%s\nstand-alone:\n%s",
					bm.Name, v, folded, st)
			}
		}
	}
}

// The layout only pays while the static table is a program, not a
// trace: a kernel edit that turns a static field into a per-iteration
// value (an immediate computed from the loop index, say) would keep
// every test green and silently re-inflate the store. Pin the full-size
// extended suite: no stream above 4,096 static instructions, the 18
// together at most 9 bytes per dynamic instruction.
func TestStaticTableIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 18 full-size streams")
	}
	var rec trace.Recorder
	var insts, bytes int64
	for _, bm := range kernels.Extended() {
		for _, v := range kernels.Variants {
			s, _ := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			if len(s.Static) > 4096 {
				t.Errorf("%s/%s: %d static instructions for %d dynamic, want at most 4096",
					bm.Name, v, len(s.Static), len(s.Ops))
			}
			insts += int64(len(s.Ops))
			bytes += s.Bytes()
		}
	}
	if perInst := float64(bytes) / float64(insts); perInst > 9 {
		t.Errorf("extended suite holds %.2f B/inst (%d bytes, %d instructions), want at most 9", perInst, bytes, insts)
	} else {
		t.Logf("extended suite: %d instructions, %d bytes, %.2f B/inst", insts, bytes, perInst)
	}
}
