package trace_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
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
// runs on reused staging and reused dedups.
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

// refStream builds a stream's numbered tables by the rule Stream
// documents, with maps and nothing of trace's own: the stripped
// instructions numbered in first-seen order; an op word per instruction,
// its number with bit 14 set when it has an address and bit 15 when it
// is taken; the words cut after a taken instruction or at 32 words; the
// distinct runs numbered in first-seen order, their words laid end to
// end; and the spans and run ids closed by the sentinel.
type refStream struct {
	static []isa.Inst
	dict   []uint16
	spans  []trace.Span
	runs   []uint32
	insts  map[isa.Inst]int
	ids    map[string]int
	open   []uint16
}

func newRefStream() *refStream {
	return &refStream{insts: map[isa.Inst]int{}, ids: map[string]int{}}
}

func (r *refStream) Emit(in isa.Inst) {
	var w uint16
	if in.Addr != 0 {
		w |= 1 << 14
	}
	if in.Taken {
		w |= 1 << 15
	}
	in.Seq, in.Addr, in.Taken = 0, 0, false
	i, ok := r.insts[in]
	if !ok {
		i = len(r.static)
		r.insts[in] = i
		r.static = append(r.static, in)
	}
	if r.open = append(r.open, w|uint16(i)); w&(1<<15) != 0 || len(r.open) == 32 {
		r.cut()
	}
}

func (r *refStream) cut() {
	if len(r.open) == 0 {
		return
	}
	var key []byte
	for _, w := range r.open {
		key = binary.LittleEndian.AppendUint16(key, w)
	}
	id, ok := r.ids[string(key)]
	if !ok {
		id = len(r.spans)
		r.ids[string(key)] = id
		r.spans = append(r.spans, trace.Span{At: uint32(len(r.dict)), End: uint32(len(r.dict) + len(r.open))})
		r.dict = append(r.dict, r.open...)
	}
	r.runs = append(r.runs, uint32(id))
	r.open = r.open[:0]
}

// finish cuts the last run and appends the sentinel.
func (r *refStream) finish() {
	r.cut()
	end := uint32(len(r.dict))
	r.spans = append(r.spans, trace.Span{At: end, End: end})
	r.runs = append(r.runs, uint32(len(r.spans)-1))
}

// check holds s's numbered tables to the finished reference's.
func (r *refStream) check(t *testing.T, name string, s *trace.Stream) {
	t.Helper()
	if !slices.Equal(s.Static, r.static) {
		t.Errorf("%s: static table of %d entries, the reference numbers %d", name, len(s.Static), len(r.static))
	}
	if !slices.Equal(s.Dict, r.dict) || !slices.Equal(s.Spans, r.spans) || !slices.Equal(s.Runs, r.runs) {
		t.Errorf("%s: %d dictionary words, %d spans and %d run ids, the reference %d, %d and %d, or their contents differ",
			name, len(s.Dict), len(s.Spans), len(s.Runs), len(r.dict), len(r.spans), len(r.runs))
	}
}

// Every full-size stream of the extended suite, recorded through one
// reused Recorder and made by Compact, numbers its static instructions
// and its distinct runs exactly as refStream does: a check on the two
// tables' shared dedup (its front caches, its lazily built index, and
// what a Recorder keeps of them between streams) that trusts nothing of
// it. Compact needs the trace materialised, one reused buffer of up to
// 1.04 M instructions (91 MB).
func TestNumberingMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 18 full-size streams")
	}
	var rec trace.Recorder
	var insts []isa.Inst
	for _, bm := range kernels.Extended() {
		for _, v := range variants {
			ref := newRefStream()
			s, _ := rec.Record(func(sink trace.Sink) {
				bm.Run(v, sinkFunc(func(in isa.Inst) { sink.Emit(in); ref.Emit(in) }))
			})
			ref.finish()
			name := bm.Name + "/" + v.String()
			ref.check(t, name+" Recorder", s)

			insts = slices.Grow(insts[:0], s.Len())
			bm.Run(v, sinkFunc(func(in isa.Inst) { insts = append(insts, in) }))
			ref.check(t, name+" Compact", trace.Compact(insts))
		}
	}
}

// The layout only pays while the static table is a program, not a
// trace: a kernel edit that turns a static field into a per-iteration
// value (an immediate computed from the loop index, say) would keep
// every test green and silently re-inflate the store. Pin the full-size
// extended suite: no stream above 4,096 static instructions, which keeps
// the 16,384 a stream can hold out of reach, and the 18 together at most
// 2.4 bytes per dynamic instruction (2.08 with addresses as 16-bit
// steps, 2.59 with 4-byte addresses, 4.23 with a flat table of 2-byte op
// words and 4-byte addresses). The paper suite's 14 streams, the ones
// the paper evaluation holds (jpegdecode's MOM+3D request is its MOM
// stream), must hold at most 3.3 MB (3.06 with 16-bit steps, 4.60 with
// 4-byte addresses).
func TestStaticTableIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 18 full-size streams")
	}
	var rec trace.Recorder
	var insts, bytes, paper int64
	for i, bm := range kernels.Extended() {
		for _, v := range variants {
			s, _ := rec.Record(func(sink trace.Sink) { bm.Run(v, sink) })
			if len(s.Static) > 4096 {
				t.Errorf("%s/%s: %d static instructions for %d dynamic, want at most 4096",
					bm.Name, v, len(s.Static), s.Len())
			}
			insts += int64(s.Len())
			bytes += s.Bytes()
			if i < len(kernels.All()) && (v != kernels.MOM3D || bm.Has3D) {
				paper += s.Bytes()
			}
		}
	}
	if perInst := float64(bytes) / float64(insts); perInst > 2.4 {
		t.Errorf("extended suite holds %.2f B/inst (%d bytes, %d instructions), want at most 2.4", perInst, bytes, insts)
	} else {
		t.Logf("extended suite: %d instructions, %d bytes, %.2f B/inst", insts, bytes, perInst)
	}
	if mb := float64(paper) / 1e6; mb > 3.3 {
		t.Errorf("the paper suite's 14 streams hold %.2f MB, want at most 3.3", mb)
	} else {
		t.Logf("paper suite: %.2f MB", mb)
	}
}

// Generating a stream allocates the stream and the kernel's data, once
// each, and of the kernel's input only the pages it touches. Through a
// warmed recorder full-size motionsearch/MOM+3D allocates the 4 KiB
// pages of the frame rows its sampled macroblocks read and write, and
// the 0.5 MB stream: about 2.7 MB. It took 6.6 MB while both input
// frames were built whole and every 64 KiB page of the reconstruction
// frame was made, and 14.7 MB while the emulated memory copied the
// input frames, the output digest copied the 2 MB reconstruction
// frame, and the interner keyed a map on whole instructions.
func TestGenerationAllocatesTheStreamOnce(t *testing.T) {
	bm := kernels.MotionSearch(kernels.DefaultMotionSearchConfig())
	gen := func(sink trace.Sink) { bm.Run(kernels.MOM3D, sink) }
	var rec trace.Recorder
	rec.Record(gen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec.Record(gen)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 4 {
		t.Errorf("motionsearch/MOM+3D allocates %.2f MB through a warmed recorder, want < 4: "+
			"does a kernel build an input frame whole instead of mapping it with mmem's Lazy, do "+
			"emulated memory pages grow past 4 KiB, does the digest copy an output region, or does "+
			"the interner key a map on whole instructions again?", mb)
	} else {
		t.Logf("motionsearch/MOM+3D allocates %.2f MB through a warmed recorder", mb)
	}
}
