package trace

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// The bits of an op word (Stream.Ops). The low 14 bits index the
// instruction's template, so a stream holds at most maxStatic static
// instructions; the largest stream of the extended suite has 3,706.
// An address is held in 32 bits: every kernel touches less than 6.3 MB
// (0x10000–0x6027d8), the bound tenant.RebaseShift also assumes.
// Compact and Recorder refuse a stream past either limit.
const (
	takenBit   uint16 = 1 << 15     // the instruction's branch outcome
	addrBit    uint16 = 1 << 14     // the instruction has the next entry of Addrs
	staticMask        = addrBit - 1 // the template index: op & staticMask
	maxStatic         = 1 << 14
)

// Stream is a recorded trace in the layout of the ATOM traces the paper
// replayed: the program once, then what executing it added — one op
// word per dynamic instruction, and an address for each that has one.
// Static holds each distinct instruction with Seq, Addr and Taken zero
// (every other field, Imm and IsStore included, is a property of the
// program). Ops[i] holds instruction i's template index, its outcome
// and whether its address is non-zero; Addrs holds those addresses in
// program order. A Cursor decodes them. All three tables are read-only
// once built: every simulation of the stream reads them in place.
type Stream struct {
	Static []isa.Inst
	Ops    []uint16
	Addrs  []uint32
}

// Len is the stream's length in dynamic instructions.
func (s *Stream) Len() int { return len(s.Ops) }

// All yields the stream's instructions in program order, each
// materialised with its index as Seq.
func (s *Stream) All() iter.Seq2[int, isa.Inst] {
	return func(yield func(int, isa.Inst) bool) {
		for c := s.Cursor(); c.More(); {
			i := c.Pos()
			tmpl, addr, taken := c.Next()
			in := *tmpl
			in.Seq, in.Addr, in.Taken = uint64(i), addr, taken
			if !yield(i, in) {
				return
			}
		}
	}
}

// Bytes is the memory the stream's three tables occupy.
func (s *Stream) Bytes() int64 {
	return int64(len(s.Ops))*int64(unsafe.Sizeof(s.Ops[0])) +
		int64(len(s.Addrs))*int64(unsafe.Sizeof(s.Addrs[0])) +
		int64(len(s.Static))*int64(unsafe.Sizeof(s.Static[0]))
}

// Cursor reads a stream in program order without materialising it: the
// one decoder of the op words. It is a value a reader keeps and
// advances; the tables it reads stay shared.
type Cursor struct {
	static []isa.Inst
	ops    []uint16
	addrs  []uint32
	pos    int // the index of the next instruction
	addr   int // the entry of addrs the next op with addrBit takes
}

// Cursor returns a cursor at the stream's first instruction.
func (s *Stream) Cursor() Cursor {
	return Cursor{static: s.Static, ops: s.Ops, addrs: s.Addrs}
}

// Pos is the index, and so the Seq, of the instruction Next reads next.
func (c *Cursor) Pos() int { return c.pos }

// Len is the length of the stream being read.
func (c *Cursor) Len() int { return len(c.ops) }

// More reports whether an instruction is left to read.
func (c *Cursor) More() bool { return c.pos < len(c.ops) }

// Peek is the template of the next instruction, which Next would
// return, without reading it.
func (c *Cursor) Peek() *isa.Inst { return &c.static[c.ops[c.pos]&staticMask] }

// Next reads the next instruction: its template (the stream's own, to
// be read and not written), its address and its branch outcome.
func (c *Cursor) Next() (in *isa.Inst, addr uint64, taken bool) {
	op := c.ops[c.pos]
	c.pos++
	if op&addrBit != 0 {
		addr = uint64(c.addrs[c.addr])
		c.addr++
	}
	return &c.static[op&staticMask], addr, op&takenBit != 0
}

// Compact converts a materialised trace to a Stream, for tests that
// assemble instructions by hand and for the []isa.Inst entry points only
// bench/ uses (core.NewSim, tenant.Options.Traces). A Seq that is not
// the instruction's index panics: a Stream has nowhere to keep it. So
// do an address of more than 32 bits and a 16,385th static instruction.
func Compact(insts []isa.Inst) *Stream {
	var t interner
	naddr := 0
	for i := range insts {
		if insts[i].Addr != 0 {
			naddr++
		}
	}
	s := &Stream{Ops: make([]uint16, len(insts)), Addrs: make([]uint32, 0, naddr)}
	for i := range insts {
		in := insts[i]
		op, addr := t.split(&in, i)
		s.Ops[i] = op
		if op&addrBit != 0 {
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
// the outcome and address bits — and its address. It refuses what a
// stream cannot hold: a Seq that is not i, an address of more than 32
// bits, more than maxStatic static instructions.
func (t *interner) split(in *isa.Inst, i int) (op uint16, addr uint32) {
	if in.Seq != uint64(i) {
		panic(fmt.Sprintf("trace: instruction %d of a stream carries Seq %d", i, in.Seq))
	}
	if in.Addr>>32 != 0 {
		panic(fmt.Sprintf("trace: instruction %d of a stream has address %#x, beyond the 32 bits a stream holds", i, in.Addr))
	}
	if addr = uint32(in.Addr); addr != 0 {
		op |= addrBit
	}
	if in.Taken {
		op |= takenBit
	}
	in.Seq, in.Addr, in.Taken = 0, 0, false

	h := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<24 | uint64(in.Src2)<<40
	h ^= uint64(in.Imm)<<13 ^ uint64(in.Stride)<<29 ^ uint64(in.VL)<<56
	slot := &t.front[h*0x9E3779B97F4A7C15>>(64-frontBits)]
	if j := *slot; j != 0 && t.static[j-1] == *in {
		return op | uint16(j-1), addr
	}
	j := t.index[h]
	for j != 0 && t.static[j-1] != *in {
		j = t.next[j-1]
	}
	if j == 0 {
		if len(t.static) == maxStatic {
			panic(fmt.Sprintf("trace: instruction %d of a stream is its static instruction %d, past the %d a stream holds",
				i, maxStatic+1, maxStatic))
		}
		if t.index == nil {
			t.index = map[uint64]uint32{}
		}
		t.static = append(t.static, *in)
		t.next = append(t.next, t.index[h])
		j = uint32(len(t.static))
		t.index[h] = j
	}
	*slot = j
	return op | uint16(j-1), addr
}

// recorderChunk is the Recorder's staging granularity in entries: 64
// KiB of op words, 128 KiB of addresses. Each chunk is one malloc, paid
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
	ops   staging[uint16]
	addrs staging[uint32]
	st    *Stats
}

// Emit stages one instruction and accumulates it, implementing Sink for
// the generator Record runs.
func (r *Recorder) Emit(in isa.Inst) {
	r.st.add(&in)
	op, addr := r.tab.split(&in, r.ops.n)
	r.ops.add(op)
	if op&addrBit != 0 {
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
