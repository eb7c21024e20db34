package trace_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// variants is every ISA variant of the suite.
var variants = []kernels.Variant{kernels.MMX, kernels.MOM, kernels.MOM3D}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(isa.Inst)

func (f sinkFunc) Emit(in isa.Inst) { f(in) }

// The Recorder must be indistinguishable from the Trace + Stats pair it
// replaces: same stream once materialised (and the stream Compact
// makes of that trace), same statistics (the unexported dimension
// bookkeeping included), for every kernel and variant — through one recorder, so every generation but the first
// runs on reused staging and a reused interning table.
func TestRecorderMatchesTraceAndStats(t *testing.T) {
	var rec trace.Recorder
	for _, bm := range experiments.GoldenSuite() {
		for _, v := range variants {
			tr, st := &trace.Trace{}, trace.NewStats()
			bm.Run(v, sinkFunc(func(in isa.Inst) { tr.Emit(in); st.Emit(in) }))
			s, folded := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			if s.Len() != len(tr.Insts) {
				t.Fatalf("%s/%s: recorded %d instructions, trace.Trace holds %d", bm.Name, v, s.Len(), len(tr.Insts))
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
			if len(s.Dict) != cap(s.Dict) || len(s.Spans) != cap(s.Spans) || len(s.Runs) != cap(s.Runs) ||
				len(s.Addrs) != cap(s.Addrs) || len(s.Static) != cap(s.Static) {
				t.Errorf("%s/%s: tables not exact-size: dict %d/%d, spans %d/%d, runs %d/%d, addrs %d/%d, static %d/%d",
					bm.Name, v, len(s.Dict), cap(s.Dict), len(s.Spans), cap(s.Spans), len(s.Runs), cap(s.Runs),
					len(s.Addrs), cap(s.Addrs), len(s.Static), cap(s.Static))
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
// extended suite: no stream above 4,096 static instructions, which keeps
// the 16,384 a stream can hold out of reach, and the 18 together at most
// 3 bytes per dynamic instruction (4.23 with a flat table of 2-byte op
// words and 4-byte addresses).
func TestStaticTableIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 18 full-size streams")
	}
	var rec trace.Recorder
	var insts, bytes int64
	for _, bm := range kernels.Extended() {
		for _, v := range variants {
			s, _ := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			if len(s.Static) > 4096 {
				t.Errorf("%s/%s: %d static instructions for %d dynamic, want at most 4096",
					bm.Name, v, len(s.Static), s.Len())
			}
			insts += int64(s.Len())
			bytes += s.Bytes()
		}
	}
	if perInst := float64(bytes) / float64(insts); perInst > 3 {
		t.Errorf("extended suite holds %.2f B/inst (%d bytes, %d instructions), want at most 3", perInst, bytes, insts)
	} else {
		t.Logf("extended suite: %d instructions, %d bytes, %.2f B/inst", insts, bytes, perInst)
	}
}

// Generating a stream allocates the stream and the kernel's data, once
// each. Through a warmed recorder full-size motionsearch/MOM+3D
// allocates its two input frames, the reconstruction frame's pages and
// the 0.5 MB stream: about 6.7 MB. It took 14.7 MB while the emulated
// memory copied the input frames, the output digest copied the 2 MB
// reconstruction frame, and the interner keyed a map on whole
// instructions.
func TestGenerationAllocatesTheStreamOnce(t *testing.T) {
	bm := kernels.MotionSearch(kernels.DefaultMotionSearchConfig())
	gen := func(sink trace.Sink) { bm.Run(kernels.MOM3D, sink) }
	var rec trace.Recorder
	rec.Record(gen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec.Record(gen)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Errorf("motionsearch/MOM+3D allocates %.2f MB through a warmed recorder, want < 8: "+
			"do input frames get copied into fresh mmem pages (Write, not Load), does the digest "+
			"copy an output region, or does the interner key a map on whole instructions again?", mb)
	} else {
		t.Logf("motionsearch/MOM+3D allocates %.2f MB through a warmed recorder", mb)
	}
}
