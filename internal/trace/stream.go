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
	addrBit    uint16 = 1 << 14     // the instruction has the next entry of Addrs
	staticMask        = addrBit - 1 // the template index: op & staticMask
	maxStatic         = 1 << 14
)

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
// the non-zero addresses in program order. A Cursor decodes them. Every
// table is read-only once built: every simulation of the stream reads
// them in place.
type Stream struct {
	Static []isa.Inst
	Dict   []uint16
	Spans  []Span
	Runs   []uint32
	Addrs  []uint32
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
// one decoder of the op words. It is a value a reader keeps and
// advances; the tables it reads stay shared. Next loads the next run as
// it finishes one, with no test for the stream's end: the sentinel is
// what it loads after the last. Pos, More, Peek and Next inline.
type Cursor struct {
	static []isa.Inst
	dict   []uint16
	spans  []Span
	runs   []uint32
	addrs  []uint32
	cur    Span // the current run's unread words
	run    int  // the entry of runs Next loads next
	pos    int  // the index of the next instruction
	addr   int  // the entry of addrs the next op with addrBit takes
	n      int  // the stream's length
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
		addr = uint64(c.addrs[c.addr])
		c.addr++
	}
	return &c.static[op&staticMask], addr, op&takenBit != 0
}

// Compact converts a materialised trace to a Stream, for tests that
// assemble instructions by hand and for the []isa.Inst entry points only
// bench/ uses (core.NewSim, tenant.Options.Traces). It builds the stream
// as a Recorder does. A Seq that is not the instruction's index panics:
// a Stream has nowhere to keep it. So do an address of more than 32
// bits and a 16,385th static instruction.
func Compact(insts []isa.Inst) *Stream {
	var b builder
	for i := range insts {
		in := insts[i]
		b.add(&in)
	}
	return b.stream()
}

// builder turns instructions into a stream's tables: the interner the
// static table, the run builder the op words, and staging the
// addresses. Its storage outlives the stream it built (reset).
type builder struct {
	tab   interner
	runs  runBuilder
	addrs staging[uint32]
}

func (b *builder) add(in *isa.Inst) {
	op, addr := b.tab.split(in, b.runs.n)
	b.runs.add(op)
	if op&addrBit != 0 {
		b.addrs.add(addr)
	}
}

// reset empties the builder for the next stream and keeps its storage;
// a builder that has none yet it sizes first (dictWords).
func (b *builder) reset() {
	t, r := &b.tab, &b.runs
	t.static, t.next = t.static[:0], t.next[:0]
	clear(t.index)
	clear(t.front[:])
	if r.index == nil {
		r.dict = make([]uint16, 0, dictWords)
		r.spans = make([]Span, 0, dictRuns)
		r.next = make([]uint32, 0, dictRuns)
		r.index = make(map[uint32]uint32, dictRuns)
	}
	r.dict, r.spans, r.next = r.dict[:0], r.spans[:0], r.next[:0]
	clear(r.index)
	r.open, r.n, r.ids.n, b.addrs.n = 0, 0, 0, 0
}

// stream copies what was built into a Stream whose tables are each
// exactly their size, the sentinel run appended.
func (b *builder) stream() *Stream {
	r := &b.runs
	r.cut()
	end := uint32(len(r.dict))
	return &Stream{
		Static: exact(b.tab.static),
		Dict:   exact(r.dict),
		Spans:  exact(r.spans, Span{end, end}),
		Runs:   r.ids.table(uint32(len(r.spans))),
		Addrs:  b.addrs.table(),
		n:      r.n,
	}
}

// exact copies s, then tail, into a slice of exactly their length.
func exact[T any](s []T, tail ...T) []T {
	t := make([]T, len(s), len(s)+len(tail))
	copy(t, s)
	return append(t, tail...)
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

// recorderChunk is the staging granularity in entries: 128 KiB of run
// ids or of addresses. Each chunk is one malloc, paid once per Recorder.
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

// table copies the staged entries, then tail, into a slice of exactly
// their number.
func (g *staging[T]) table(tail ...T) []T {
	t := make([]T, g.n, g.n+len(tail))
	for c := 0; c*recorderChunk < g.n; c++ {
		copy(t[c*recorderChunk:], g.chunks[c][:])
	}
	return append(t, tail...)
}

// dictWords and dictRuns size a Recorder's dictionary when it first
// records: every stream of the paper suite fits (mpeg2encode/MMX, the
// largest, holds 26,276 words in 830 runs), so recording it grows
// nothing. Growing by append cost about 40 mallocs a fresh Recorder.
// Compact grows its builder from nothing instead, as far as its trace
// needs.
const (
	dictWords = 1 << 15
	dictRuns  = 1 << 11
)

// runBuilder cuts op words into runs and keeps each distinct run once.
// Its index is built like the interner's: a map keyed by the run's hash
// (runKey) holds the newest distinct run with that key, next chains the
// older ones, and a lookup walks the chain with a full compare, so runs
// whose keys collide stay distinct. Distinct runs are numbered in
// first-seen order, and each dynamic run is staged as its number.
type runBuilder struct {
	run   [maxRun]uint16 // the run being cut: run[:open]
	open  int
	n     int // op words added
	dict  []uint16
	spans []Span
	next  []uint32          // per distinct run: the older one with its key, + 1; 0 ends the chain
	index map[uint32]uint32 // key → the newest distinct run with it, + 1
	ids   staging[uint32]   // per dynamic run, its distinct run
}

// add appends op to the run being cut and cuts it after a taken
// instruction or at maxRun words.
func (b *runBuilder) add(op uint16) {
	b.run[b.open] = op
	b.open++
	b.n++
	if op&takenBit != 0 || b.open == maxRun {
		b.cut()
	}
}

// cut ends the run being cut, if it has a word: it finds the run in the
// dictionary, or adds it, and stages its number.
func (b *runBuilder) cut() {
	if b.open == 0 {
		return
	}
	run := b.run[:b.open]
	b.open = 0
	key := runKey(run)
	j := b.index[key]
	for j != 0 && !slices.Equal(b.dict[b.spans[j-1].At:b.spans[j-1].End], run) {
		j = b.next[j-1]
	}
	if j == 0 {
		if b.index == nil {
			b.index = map[uint32]uint32{}
		}
		at := uint32(len(b.dict))
		b.dict = append(b.dict, run...)
		b.spans = append(b.spans, Span{at, uint32(len(b.dict))})
		b.next = append(b.next, b.index[key])
		j = uint32(len(b.spans))
		b.index[key] = j
	}
	b.ids.add(j - 1)
}

// runKey is the key of the run builder's index: the 64-bit FNV-1a hash
// of a run's words, folded to 32 bits.
func runKey(run []uint16) uint32 {
	h := uint64(14695981039346656037)
	for _, w := range run {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return uint32(h ^ h>>32)
}

// Recorder is the sink whole streams are generated through. It interns
// each instruction's static half, cuts the op words into runs, stages
// the runs and addresses in chunks, accumulates the stream's Stats in
// the same Emit, and copies the finished tables once into slices of
// exactly their size. Its storage outlives the stream, so a Recorder
// that records stream after stream allocates only the streams
// themselves. The zero value is ready to use.
type Recorder struct {
	b  builder
	st *Stats
}

// Emit stages one instruction and accumulates it, implementing Sink for
// the generator Record runs.
func (r *Recorder) Emit(in isa.Inst) {
	r.st.add(&in)
	r.b.add(&in)
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
