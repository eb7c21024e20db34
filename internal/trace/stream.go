package trace

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// The bits of an op word (Stream.Ops). The low 30 bits index the
// instruction's template, so a stream holds at most 2^30 static
// instructions. No check guards that limit: TestStaticTableIsSmall
// holds every stream of the extended suite to 4,096.
const (
	TakenBit   uint32 = 1 << 31     // the instruction's branch outcome
	AddrBit    uint32 = 1 << 30     // the instruction has the next entry of Addrs
	StaticMask        = AddrBit - 1 // the template index: op & StaticMask
)

// Stream is a recorded trace in the layout of the ATOM traces the paper
// replayed: the program once, then what executing it added — one op
// word per dynamic instruction, and an address for each that has one.
// Static holds each distinct instruction with Seq, Addr and Taken zero
// (every other field, Imm and IsStore included, is a property of the
// program). Ops[i] is instruction i's template index, with TakenBit set
// when it was taken and AddrBit when its address is non-zero; Addrs
// holds those addresses in program order, so instruction i's address is
// Addrs[k], k the number of earlier ops with AddrBit. All three tables
// are read-only once built: every simulation of the stream reads them
// in place.
type Stream struct {
	Static []isa.Inst
	Ops    []uint32
	Addrs  []uint64
}

// All yields the stream's instructions in program order, each
// materialised with its index as Seq.
func (s *Stream) All() iter.Seq2[int, isa.Inst] {
	return func(yield func(int, isa.Inst) bool) {
		addrs := s.Addrs
		for i, op := range s.Ops {
			in := s.Static[op&StaticMask]
			in.Seq, in.Taken = uint64(i), op&TakenBit != 0
			if op&AddrBit != 0 {
				in.Addr, addrs = addrs[0], addrs[1:]
			}
			if !yield(i, in) {
				return
			}
		}
	}
}

// Bytes is the memory the stream's three tables occupy.
func (s *Stream) Bytes() int64 {
	return int64(len(s.Ops))*4 + int64(len(s.Addrs))*8 +
		int64(len(s.Static))*int64(unsafe.Sizeof(isa.Inst{}))
}

// Compact converts a materialised trace to a Stream, for the []isa.Inst
// entry points (core.NewSim, tenant.Options.Traces). A Seq that is not
// the instruction's index panics: a Stream has nowhere to keep it.
func Compact(insts []isa.Inst) *Stream {
	var t interner
	naddr := 0
	for i := range insts {
		if insts[i].Addr != 0 {
			naddr++
		}
	}
	s := &Stream{Ops: make([]uint32, len(insts)), Addrs: make([]uint64, 0, naddr)}
	for i := range insts {
		in := insts[i]
		op, addr := t.split(&in, i)
		s.Ops[i] = op
		if op&AddrBit != 0 {
			s.Addrs = append(s.Addrs, addr)
		}
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
// instructions of the loop being executed; behind it an index keyed by
// the front cache's hash chains, through next, the entries that share a
// key. Entries are appended in first-seen order either way.
type interner struct {
	static []isa.Inst
	next   []uint32               // per entry: the older entry with its key, + 1; 0 ends the chain
	index  map[uint64]uint32      // key → the newest entry with it, + 1
	front  [1 << frontBits]uint32 // static index + 1; 0 is empty
}

// split strips instruction i of its dynamic facts and returns its op
// word — the index of what remains of *in in the static table, with
// the outcome and address bits — and its address.
func (t *interner) split(in *isa.Inst, i int) (op uint32, addr uint64) {
	if in.Seq != uint64(i) {
		panic(fmt.Sprintf("trace: instruction %d of a stream carries Seq %d", i, in.Seq))
	}
	if addr = in.Addr; addr != 0 {
		op |= AddrBit
	}
	if in.Taken {
		op |= TakenBit
	}
	in.Seq, in.Addr, in.Taken = 0, 0, false

	h := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<24 | uint64(in.Src2)<<40
	h ^= uint64(in.Imm)<<13 ^ uint64(in.Stride)<<29 ^ uint64(in.VL)<<56
	slot := &t.front[h*0x9E3779B97F4A7C15>>(64-frontBits)]
	if j := *slot; j != 0 && t.static[j-1] == *in {
		return op | (j - 1), addr
	}
	j := t.index[h]
	for j != 0 && t.static[j-1] != *in {
		j = t.next[j-1]
	}
	if j == 0 {
		if t.index == nil {
			t.index = map[uint64]uint32{}
		}
		t.static = append(t.static, *in)
		t.next = append(t.next, t.index[h])
		j = uint32(len(t.static))
		t.index[h] = j
	}
	*slot = j
	return op | (j - 1), addr
}

// recorderChunk is the Recorder's staging granularity in entries: 128
// KiB of op words, 256 KiB of addresses. Each chunk is one malloc, paid
// once per Recorder: 20 for the longest stream of the paper suite.
const recorderChunk = 32768

// staging holds one table of the stream being recorded in fixed-size
// chunks that never move, so growing it copies nothing.
type staging[T any] struct {
	chunks []*[recorderChunk]T
	n      int // entries staged by the current Record
}

func (g *staging[T]) add(v T) {
	c, i := g.n/recorderChunk, g.n%recorderChunk
	if c == len(g.chunks) {
		g.chunks = append(g.chunks, new([recorderChunk]T))
	}
	g.chunks[c][i] = v
	g.n++
}

// table copies the staged entries into a slice of exactly their number.
func (g *staging[T]) table() []T {
	t := make([]T, g.n)
	for c := 0; c*recorderChunk < g.n; c++ {
		copy(t[c*recorderChunk:], g.chunks[c][:])
	}
	return t
}

// Recorder is the sink whole streams are generated through. It interns
// each instruction's static half, stages the op words and addresses in
// chunks, accumulates the stream's Stats in the same Emit, and copies
// the finished tables once into slices of exactly their size. The
// staging outlives the stream, so a Recorder that records stream after
// stream allocates only the streams themselves. The zero value is ready
// to use.
type Recorder struct {
	tab   interner
	ops   staging[uint32]
	addrs staging[uint64]
	st    *Stats
}

// Emit stages one instruction and accumulates it, implementing Sink for
// the generator Record runs.
func (r *Recorder) Emit(in isa.Inst) {
	r.st.add(&in)
	op, addr := r.tab.split(&in, r.ops.n)
	r.ops.add(op)
	if op&AddrBit != 0 {
		r.addrs.add(addr)
	}
}

// Record runs gen with the recorder as its sink and returns the stream
// gen emitted (every table len == cap) and its statistics. It starts
// empty whatever an earlier gen that panicked left staged.
func (r *Recorder) Record(gen func(Sink)) (*Stream, *Stats) {
	r.ops.n, r.addrs.n, r.st = 0, 0, NewStats()
	r.tab.static, r.tab.next = r.tab.static[:0], r.tab.next[:0]
	clear(r.tab.index)
	clear(r.tab.front[:])
	gen(r)
	s := &Stream{Static: make([]isa.Inst, len(r.tab.static)), Ops: r.ops.table(), Addrs: r.addrs.table()}
	copy(s.Static, r.tab.static)
	return s, r.st
}
