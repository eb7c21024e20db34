package trace

import (
	"fmt"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// The bits of an op word (Stream.Dict). The low 14 bits index the
// instruction's template, so a stream holds at most maxStatic static
// instructions; the largest stream of the extended suite has 3,706.
// An address is held in 32 bits: every kernel touches less than 6.3 MB
// (0x10000–0x6027d8), the bound tenant.RebaseShift also assumes.
// Compact and Recorder refuse a stream past either limit.
const (
	takenBit   uint16 = 1 << 15     // the instruction's branch outcome
	addrBit    uint16 = 1 << 14     // the instruction has the next address of Addrs
	staticMask        = addrBit - 1 // the template index: op & staticMask
	maxStatic         = 1 << 14
)

// escape is the address word that stands for a step no word holds.
// Addrs holds each address as its step from the stream's previous one
// (the first's from 0), a 16-bit two's-complement word, modulo 2^32:
// the kernels walk memory in short strides, so 98.8 % of the paper
// suite's 793,610 addresses take one word. A step outside ±32,767 is
// written as escape, then the address's high and low halves.
const escape uint16 = 0x8000

// maxRun is the most op words a run holds. A stream's op words are cut
// into runs after every taken instruction, and after maxRun words that
// hold none, and each distinct run is kept once: a media kernel is
// loops, so its runs repeat. The paper suite's op words take 0.72 MB
// stored so, where a flat table takes 4.00. Counted as dictionary words
// plus 4 bytes a dynamic run, the cut at 32 words took 0.69 MB, at 64
// words 0.98 and at 256 words 2.38; a cut after any branch at 16 words
// 0.77.
const maxRun = 32

// Stream is a recorded trace in the layout of the ATOM traces the paper
// replayed: the program once, then what executing it added — an op word
// per dynamic instruction, and an address for each that has one.
// Static holds each distinct instruction with Seq, Addr and Taken zero
// (every other field, Imm and IsStore included, is a property of the
// program). An op word holds an instruction's template index, its
// outcome and whether its address is non-zero. The op words are kept as
// runs (maxRun): Dict holds each distinct run's words once, Spans where
// each lies in Dict, and Runs the distinct run each dynamic run is, in
// program order. Spans and Runs end in a sentinel, an empty span past
// the last word, that a Cursor loads after the last run. Addrs holds
// the non-zero addresses in program order, each as a one-word step from
// the one before or as an escape and two words (escape). A Cursor
// decodes them. Every table is read-only once built: every simulation
// of the stream reads them in place.
type Stream struct {
	Static []isa.Inst
	Dict   []uint16
	Spans  []Span
	Runs   []uint32
	Addrs  []uint16
	n      int // dynamic instructions
}

// Span is where one distinct run's op words lie: Dict[At:End].
type Span struct{ At, End uint32 }

// Len is the stream's length in dynamic instructions.
func (s *Stream) Len() int { return s.n }

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

// Bytes is the memory the stream's tables occupy.
func (s *Stream) Bytes() int64 {
	return int64(len(s.Dict))*int64(unsafe.Sizeof(s.Dict[0])) +
		int64(len(s.Spans))*int64(unsafe.Sizeof(s.Spans[0])) +
		int64(len(s.Runs))*int64(unsafe.Sizeof(s.Runs[0])) +
		int64(len(s.Addrs))*int64(unsafe.Sizeof(s.Addrs[0])) +
		int64(len(s.Static))*int64(unsafe.Sizeof(s.Static[0]))
}

// Cursor reads a stream in program order without materialising it: the
// one decoder of the op words and the address steps. It is a value a
// reader keeps and advances; the tables it reads stay shared. Next
// loads the next run as it finishes one, with no test for the stream's
// end: the sentinel is what it loads after the last. Pos, More and Peek
// inline; Next, with its step decode, is past the inliner's budget.
type Cursor struct {
	static []isa.Inst
	dict   []uint16
	spans  []Span
	runs   []uint32
	addrs  []uint16
	cur    Span   // the current run's unread words
	run    int    // the entry of runs Next loads next
	pos    int    // the index of the next instruction
	addr   int    // the word of addrs the next op with addrBit starts at
	last   uint32 // the address Next read last, which the next step is from
	n      int    // the stream's length
}

// Cursor returns a cursor at the stream's first instruction. The stream
// is one Compact or a Recorder built: a zero Stream has no sentinel.
func (s *Stream) Cursor() Cursor {
	return Cursor{static: s.Static, dict: s.Dict, spans: s.Spans, runs: s.Runs, addrs: s.Addrs,
		cur: s.Spans[s.Runs[0]], run: 1, n: s.n}
}

// Pos is the index, and so the Seq, of the instruction Next reads next.
func (c *Cursor) Pos() int { return c.pos }

// Len is the length of the stream being read.
func (c *Cursor) Len() int { return c.n }

// More reports whether an instruction is left to read.
func (c *Cursor) More() bool { return c.pos < c.n }

// Peek is the template of the next instruction, which Next would
// return, without reading it.
func (c *Cursor) Peek() *isa.Inst { return &c.static[c.dict[c.cur.At]&staticMask] }

// Next reads the next instruction: its template (the stream's own, to
// be read and not written), its address and its branch outcome.
func (c *Cursor) Next() (in *isa.Inst, addr uint64, taken bool) {
	op := c.dict[c.cur.At]
	c.cur.At++
	c.pos++
	if c.cur.At == c.cur.End {
		c.cur = c.spans[c.runs[c.run]]
		c.run++
	}
	if op&addrBit != 0 {
		if w := c.addrs[c.addr]; w != escape {
			c.last += uint32(int16(w))
			c.addr++
		} else {
			c.last = uint32(c.addrs[c.addr+1])<<16 | uint32(c.addrs[c.addr+2])
			c.addr += 3
		}
		addr = uint64(c.last)
	}
	return &c.static[op&staticMask], addr, op&takenBit != 0
}

// Compact converts a materialised trace to a Stream, for tests that
// assemble instructions by hand and for the []isa.Inst entry points only
// bench/ uses (core.NewSim, tenant.Options.Traces). It builds the stream
// as a Recorder does. A Seq that is not the instruction's index panics:
// a Stream has nowhere to keep it. So do an address of more than 32
// bits, a 16,385th static instruction, an opcode or kind the ISA does
// not define, and a 3D load or move whose 3D register is none.
func Compact(insts []isa.Inst) *Stream {
	// Staging sized to the trace: an instruction adds at most one static
	// entry, one dynamic run and three address words.
	var b builder
	b.static = make([]isa.Inst, 0, min(len(insts), maxStatic))
	b.ids.flat = make([]uint32, 0, len(insts))
	b.addrs.flat = make([]uint16, 0, 3*len(insts))
	for i := range insts {
		in := insts[i]
		b.add(&in)
	}
	return b.stream()
}

// builder turns instructions into a stream's tables: the static table
// and the run dictionary, each numbered by a dedup of its own, and
// staging for the dynamic runs' ids and the addresses' words. Its
// storage outlives the stream it built (reset).
type builder struct {
	static  []isa.Inst
	statics dedup
	dict    []uint16
	spans   []Span
	runs    dedup          // the distinct runs: dict[spans[e].At:spans[e].End]
	run     [maxRun]uint16 // the run being cut: run[:open]
	open    int
	n       int             // instructions added
	ids     staging[uint32] // per dynamic run, its distinct run
	addrs   staging[uint16]
	last    uint32 // the address staged last, which the next step is from
}

// add strips instruction b.n of its dynamic facts and numbers what
// remains in the static table; it appends the op word — that number,
// with the outcome and address bits — to the run being cut, cut after a
// taken instruction or at maxRun words, and stages the address. It
// refuses what a stream cannot hold: a Seq that is not b.n, an address
// of more than 32 bits, more than maxStatic static instructions; and
// what Stats would index its tables by out of range: an opcode or kind
// the ISA does not define, or a 3D load or move whose register (Dst,
// Src1) is not a 3D register.
func (b *builder) add(in *isa.Inst) {
	if in.Seq != uint64(b.n) {
		panic(fmt.Sprintf("trace: instruction %d of a stream carries Seq %d", b.n, in.Seq))
	}
	if in.Addr>>32 != 0 {
		panic(fmt.Sprintf("trace: instruction %d of a stream has address %#x, beyond the 32 bits a stream holds", b.n, in.Addr))
	}
	if int(in.Op) >= isa.NumOps || in.Kind > isa.Kind3DMove {
		panic(fmt.Sprintf("trace: instruction %d of a stream is a %v %s, not one of the ISA's %d kinds and %d opcodes",
			b.n, in.Kind, in.Op.Name(), isa.Kind3DMove+1, isa.NumOps))
	}
	if in.Kind == isa.Kind3DLoad || in.Kind == isa.Kind3DMove {
		r := in.Dst
		if in.Kind == isa.Kind3DMove {
			r = in.Src1
		}
		if r.Class() != isa.RC3D || r.Index() >= isa.Num3DRegs {
			panic(fmt.Sprintf("trace: instruction %d of a stream is a %v of %v, not one of the %d 3D registers",
				b.n, in.Kind, r, isa.Num3DRegs))
		}
	}
	addr, taken := uint32(in.Addr), in.Taken
	in.Seq, in.Addr, in.Taken = 0, 0, false
	op := uint16(b.statics.find(instKey(in),
		func(e uint32) bool { return b.static[e] == *in },
		func(e uint32) uint64 { return instKey(&b.static[e]) },
		func() {
			if len(b.static) == maxStatic {
				panic(fmt.Sprintf("trace: instruction %d of a stream is its static instruction %d, past the %d a stream holds",
					b.n, maxStatic+1, maxStatic))
			}
			b.static = append(b.static, *in)
		}))
	if taken {
		op |= takenBit
	}
	if addr != 0 {
		op |= addrBit
		if step := int32(addr - b.last); -0x7fff <= step && step <= 0x7fff {
			b.addrs.add(uint16(step))
		} else {
			b.addrs.add(escape)
			b.addrs.add(uint16(addr >> 16))
			b.addrs.add(uint16(addr))
		}
		b.last = addr
	}
	b.run[b.open] = op
	b.open++
	b.n++
	if taken || b.open == maxRun {
		b.cut()
	}
}

// cut ends the run being cut, if it has a word: it numbers the run in
// the dictionary, adding it if it is new, and stages its number.
func (b *builder) cut() {
	if b.open == 0 {
		return
	}
	run := b.run[:b.open]
	b.open = 0
	b.ids.add(b.runs.find(runKey(run),
		func(e uint32) bool { return slices.Equal(b.words(e), run) },
		func(e uint32) uint64 { return runKey(b.words(e)) },
		func() {
			at := uint32(len(b.dict))
			b.dict = append(b.dict, run...)
			b.spans = append(b.spans, Span{at, uint32(len(b.dict))})
		}))
}

// words is distinct run e's op words.
func (b *builder) words(e uint32) []uint16 { return b.dict[b.spans[e].At:b.spans[e].End] }

// reset empties the builder for the next stream and keeps its storage;
// a builder that has none yet it sizes first (dictWords).
func (b *builder) reset() {
	if b.runs.index == nil {
		b.dict = make([]uint16, 0, dictWords)
		b.spans = make([]Span, 0, dictRuns)
		b.runs.next = make([]uint32, 0, dictRuns)
		b.runs.index = make(map[uint64]uint32, dictRuns)
	}
	b.static, b.dict, b.spans = b.static[:0], b.dict[:0], b.spans[:0]
	b.statics.reset()
	b.runs.reset()
	b.open, b.n, b.ids.n, b.addrs.n, b.last = 0, 0, 0, 0, 0
}

// stream copies what was built into a Stream whose tables are each
// exactly their size, the sentinel run appended.
func (b *builder) stream() *Stream {
	b.cut()
	end := uint32(len(b.dict))
	return &Stream{
		Static: exact(b.static),
		Dict:   exact(b.dict),
		Spans:  exact(b.spans, Span{end, end}),
		Runs:   b.ids.table(uint32(len(b.spans))),
		Addrs:  b.addrs.table(),
		n:      b.n,
	}
}

// exact copies s, then tail, into a slice of exactly their length.
func exact[T any](s []T, tail ...T) []T {
	t := make([]T, len(s), len(s)+len(tail))
	copy(t, s)
	return append(t, tail...)
}

// frontBits sizes a dedup's front cache: for the static table, 1024
// slots answer for 95–99.9 % of the instructions of every stream of the
// extended suite, and most of the rest are each static instruction's
// first sight.
const frontBits = 10

// dedup numbers the entries of a table — the static table's
// instructions, the dictionary's runs — in first-seen order. A
// direct-mapped front cache of entry numbers, checked with a full
// compare, answers for the loop being executed; behind it an index
// keyed by the entries' 64-bit keys chains, through next, the entries
// that share a key. The index is only read when a front slot holds
// another entry (a slot is never emptied, so an empty one means a new
// entry), and is brought up to date then. Until two entries share a
// slot there is none but the one a Recorder presizes for its runs
// (dictRuns), and a Recorder keeps both from stream to stream.
type dedup struct {
	n     uint32                 // entries
	next  []uint32               // per indexed entry: the older entry with its key, + 1; 0 ends the chain
	index map[uint64]uint32      // key → the newest indexed entry with it, + 1
	front [1 << frontBits]uint32 // entry + 1; 0 is empty
}

// find returns the number of the entry with key that is accepts, after
// add has appended the entry if none is. keyOf is an entry's key, which
// the index needs for the entries added since it was last read.
func (d *dedup) find(key uint64, is func(e uint32) bool, keyOf func(e uint32) uint64, add func()) uint32 {
	slot := &d.front[key*0x9E3779B97F4A7C15>>(64-frontBits)]
	j := *slot
	if j != 0 && !is(j-1) {
		if d.index == nil {
			d.index = make(map[uint64]uint32, d.n)
		}
		for e := uint32(len(d.next)); e < d.n; e++ {
			k := keyOf(e)
			d.next = append(d.next, d.index[k])
			d.index[k] = e + 1
		}
		for j = d.index[key]; j != 0 && !is(j-1); j = d.next[j-1] {
		}
	}
	if j == 0 {
		add()
		d.n++
		j = d.n
	}
	*slot = j
	return j - 1
}

// reset empties the dedup for the next table and keeps its storage.
func (d *dedup) reset() {
	d.n, d.next = 0, d.next[:0]
	clear(d.index)
	clear(d.front[:])
}

// instKey is a stripped instruction's key.
func instKey(in *isa.Inst) uint64 {
	h := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<24 | uint64(in.Src2)<<40
	return h ^ uint64(in.Imm)<<13 ^ uint64(in.Stride)<<29 ^ uint64(in.VL)<<56
}

// runKey is a run's key: the 64-bit FNV-1a hash of its words, folded to
// 32 bits, so a test can find runs whose keys collide by search.
func runKey(run []uint16) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range run {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return uint64(uint32(h ^ h>>32))
}

// recorderChunk is the staging granularity in entries: 128 KiB of run
// ids or 64 KiB of address words. Each chunk is one malloc, paid once
// per Recorder.
const recorderChunk = 32768

// staging holds one table of the stream being built. A Recorder's is
// fixed-size chunks that never move, so growing it copies nothing;
// Compact's is a slice with room for the most its trace can stage.
type staging[T any] struct {
	chunks []*[recorderChunk]T
	flat   []T // Compact's entries, instead of chunks when non-nil
	n      int // entries staged by the current Record
}

func (g *staging[T]) add(v T) {
	if g.flat != nil {
		g.flat = append(g.flat, v)
		g.n++
		return
	}
	c, i := g.n/recorderChunk, g.n%recorderChunk
	if c == len(g.chunks) {
		g.chunks = append(g.chunks, new([recorderChunk]T))
	}
	g.chunks[c][i] = v
	g.n++
}

// table copies the staged entries, then tail, into a slice of exactly
// their number.
func (g *staging[T]) table(tail ...T) []T {
	t := make([]T, g.n, g.n+len(tail))
	copy(t, g.flat)
	for c := 0; g.flat == nil && c*recorderChunk < g.n; c++ {
		copy(t[c*recorderChunk:], g.chunks[c][:])
	}
	return append(t, tail...)
}

// dictWords and dictRuns size a Recorder's dictionary and its run index
// when it first records: every stream of the paper suite fits
// (mpeg2encode/MMX, the largest, holds 26,276 words in 830 runs), so
// recording it grows nothing. Growing by append cost about 40 mallocs a
// fresh Recorder. Compact grows its builder from nothing instead, as far
// as its trace needs.
const (
	dictWords = 1 << 15
	dictRuns  = 1 << 11
)

// Recorder is the sink whole streams are generated through. It numbers
// each instruction's static half, cuts the op words into runs and
// numbers them (dedup), stages the run ids and addresses in chunks,
// accumulates the stream's Stats in the same Emit, and copies the
// finished tables once into slices of exactly their size. Its storage outlives the stream, so a Recorder
// that records stream after stream allocates only the streams
// themselves. The zero value is ready to use.
type Recorder struct {
	b  builder
	st *Stats
}

// Emit stages one instruction and accumulates it, implementing Sink for
// the generator Record runs. The builder goes first, so a 3D register
// Stats could not index is refused by name; it strips the instruction
// of its dynamic facts, and of those Stats reads only the outcome.
func (r *Recorder) Emit(in isa.Inst) {
	taken := in.Taken
	r.b.add(&in)
	in.Taken = taken
	r.st.add(&in)
}

// Record runs gen with the recorder as its sink and returns the stream
// gen emitted (every table len == cap) and its statistics. It starts
// empty whatever an earlier gen that panicked left staged.
func (r *Recorder) Record(gen func(Sink)) (*Stream, *Stats) {
	r.b.reset()
	r.st = NewStats()
	gen(r)
	return r.b.stream(), r.st
}
