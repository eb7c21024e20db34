package trace

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// Dyn is the dynamic half of one instruction: what executing it added
// to the program text.
type Dyn struct {
	Addr   uint64 // effective base address (memory kinds)
	Static uint32 // index of the instruction's template in Stream.Static
	Taken  bool   // branch outcome
}

// Stream is a recorded trace in the layout of the ATOM traces the paper
// replayed: the program once, then one 16-byte record per dynamic
// instruction. Static holds each distinct instruction with Seq, Addr
// and Taken zero (every other field, Imm and IsStore included, is a
// property of the program); instruction i is Static[Dyn[i].Static] with
// Seq i and Dyn[i]'s address and outcome. Both slices are read-only
// once built: every simulation of the stream reads them in place.
type Stream struct {
	Static []isa.Inst
	Dyn    []Dyn
}

// At materialises dynamic instruction i.
func (s *Stream) At(i int) isa.Inst {
	d := s.Dyn[i]
	in := s.Static[d.Static]
	in.Seq, in.Addr, in.Taken = uint64(i), d.Addr, d.Taken
	return in
}

// Bytes is the memory the stream's two tables occupy.
func (s *Stream) Bytes() int64 {
	return int64(len(s.Dyn))*int64(unsafe.Sizeof(Dyn{})) +
		int64(len(s.Static))*int64(unsafe.Sizeof(isa.Inst{}))
}

// Compact converts a materialised trace to a Stream, for the []isa.Inst
// entry points (core.NewSim, tenant.Options.Traces). A Seq that is not
// the instruction's index panics: a Stream has nowhere to keep it.
func Compact(insts []isa.Inst) *Stream {
	var t interner
	s := &Stream{Dyn: make([]Dyn, len(insts))}
	for i := range insts {
		in := insts[i]
		s.Dyn[i] = t.split(&in, i)
	}
	s.Static = slices.Clip(t.static)
	return s
}

// frontBits sizes the interner's front cache: 1024 slots answer for
// 95–99.9 % of the instructions of every stream of the extended suite,
// and most of the rest are each static instruction's first sight.
const frontBits = 10

// interner builds a stream's static table. A direct-mapped front cache
// of table indices, checked with a full compare, answers for the
// instructions of the loop being executed, so the map — which hashes
// all 88 bytes of its key — is consulted only when a loop is entered.
type interner struct {
	static []isa.Inst
	index  map[isa.Inst]uint32
	front  [1 << frontBits]uint32 // static index + 1; 0 is empty
}

// split strips instruction i of its dynamic facts, which it returns
// with the index of what remains of *in in the static table.
func (t *interner) split(in *isa.Inst, i int) Dyn {
	if in.Seq != uint64(i) {
		panic(fmt.Sprintf("trace: instruction %d of a stream carries Seq %d", i, in.Seq))
	}
	d := Dyn{Addr: in.Addr, Taken: in.Taken}
	in.Seq, in.Addr, in.Taken = 0, 0, false

	h := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<24 | uint64(in.Src2)<<40
	h ^= uint64(in.Imm)<<13 ^ uint64(in.Stride)<<29 ^ uint64(in.VL)<<56
	slot := &t.front[h*0x9E3779B97F4A7C15>>(64-frontBits)]
	if j := *slot; j != 0 && t.static[j-1] == *in {
		d.Static = j - 1
		return d
	}
	j, ok := t.index[*in]
	if !ok {
		if t.index == nil {
			t.index = map[isa.Inst]uint32{}
		}
		j = uint32(len(t.static))
		t.static = append(t.static, *in)
		t.index[*in] = j
	}
	*slot = j + 1
	d.Static = j
	return d
}

// recorderChunk is the Recorder's staging granularity in instructions:
// 64 KiB of Dyn records.
const recorderChunk = 4096

// Recorder is the sink whole streams are generated through. It interns
// each instruction's static half, stages the dynamic half in fixed-size
// chunks that never move, accumulates the stream's Stats in the same
// Emit, and copies the finished tables once into slices of exactly
// their size. The staging outlives the stream, so a Recorder that
// records stream after stream allocates only the streams themselves.
// The zero value is ready to use.
type Recorder struct {
	tab    interner
	chunks []*[recorderChunk]Dyn
	n      int // instructions staged by the current Record
	st     *Stats
}

// Emit stages one instruction and accumulates it, implementing Sink for
// the generator Record runs.
func (r *Recorder) Emit(in isa.Inst) {
	c, i := r.n/recorderChunk, r.n%recorderChunk
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, new([recorderChunk]Dyn))
	}
	r.st.add(&in)
	r.chunks[c][i] = r.tab.split(&in, r.n)
	r.n++
}

// Record runs gen with the recorder as its sink and returns the stream
// gen emitted (both tables len == cap) and its statistics. It starts
// empty whatever an earlier gen that panicked left staged.
func (r *Recorder) Record(gen func(Sink)) (*Stream, *Stats) {
	r.n, r.st = 0, NewStats()
	r.tab.static = r.tab.static[:0]
	clear(r.tab.index)
	clear(r.tab.front[:])
	gen(r)
	s := &Stream{Static: make([]isa.Inst, len(r.tab.static)), Dyn: make([]Dyn, r.n)}
	copy(s.Static, r.tab.static)
	for c := 0; c*recorderChunk < r.n; c++ {
		copy(s.Dyn[c*recorderChunk:], r.chunks[c][:])
	}
	return s, r.st
}
