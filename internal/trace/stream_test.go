package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

const numKinds = uint8(isa.Kind3DMove) + 1

// fuzzTrace builds a trace from fuzz input: a template with any value
// in every field, and one dynamic instruction per byte of dyn. The
// byte's low bits pick one of a few variations of the template, so the
// trace revisits static instructions the way a loop does; the rest of
// it, with the index, makes the address — below 2^32, the most a stream
// holds — and the outcome.
func fuzzTrace(tmpl isa.Inst, dyn []byte) []isa.Inst {
	insts := make([]isa.Inst, len(dyn))
	for i, b := range dyn {
		in := tmpl
		switch v := b >> 2 & 7; b & 3 {
		case 1:
			in.Imm += int64(v)
		case 2:
			in.Kind = isa.Kind((uint8(in.Kind) + v) % numKinds)
		case 3:
			in.Dst, in.Back = in.Dst^isa.Reg(v), !in.Back
		}
		in.Seq, in.Addr, in.Taken = uint64(i), uint64(uint32(tmpl.Stride)*uint32(i)^uint32(b)<<24), b&0x80 != 0
		insts[i] = in
	}
	return insts
}

// Compact then All is the identity on any trace whose Seq is the index,
// whatever the fields hold — an address or an outcome on any kind, a
// zero address on a memory kind; the static table is exactly the
// distinct instructions modulo Seq/Addr/Taken, stripped of those three;
// the op words are cut into runs by the rule and each distinct run is
// kept once (checkRuns); Addrs holds a word for each non-zero address
// and two more for each escape; a Recorder reused from input to input
// builds what Compact builds (fuzzRec), of the trace and then of the
// trace reversed, which meets none of the trace's entries where the
// front caches held them; and a Seq that is not the index, an address at
// or beyond 2^32, an opcode or kind the ISA does not define, or a 3D
// load or move of no 3D register is refused wherever it sits.
func FuzzStreamRoundTrip(f *testing.F) {
	loop := []byte{0, 0x85, 0x0a, 0xff, 0, 0x85, 0x0a, 0xff, 0x12, 0x13, 0, 0x85, 0x0a, 0xff}
	for k := uint8(0); k < numKinds; k++ {
		regs := uint64(isa.V(int(k))) | uint64(isa.R(3))<<16 | uint64(isa.D(1))<<32 | uint64(isa.P(1))<<48
		f.Add(uint8(isa.OpLoadS)+k, k, regs, int64(-(1 << 40)), int64(-640), 16, 16, -8, k, loop)
	}
	f.Add(uint8(0), uint8(0), uint64(0), int64(0), int64(0), 0, 0, 0, uint8(0), []byte{})
	// An opcode and a kind past the ISA's, the kind wrapped into it by
	// the variations of the second and third instructions.
	f.Add(uint8(isa.NumOps), numKinds, uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0), []byte{0, 0x02, 0x0a})
	f.Add(uint8(255), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0), []byte{0x01, 0x85})
	// A non-memory instruction with an address, a memory instruction at
	// address 0, a taken instruction that is no branch.
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0), []byte{0x10, 0x20, 0x30})
	f.Add(uint8(isa.OpLoadS), uint8(isa.KindScalarMem), uint64(0), int64(4), int64(0), 0, 0, 0, uint8(0), []byte{0, 0, 0})
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0), int64(0), int64(0), 0, 0, 0, uint8(0), []byte{0x80, 0, 0x80})
	// Two instructions that differ only in Kind, which the instruction key
	// omits: one key, two static entries (a 3D load into d0, a 3D move
	// from d0).
	f.Add(uint8(isa.Op3DVLoad), uint8(isa.Kind3DLoad), uint64(isa.D(0))|uint64(isa.D(0))<<16, int64(0), int64(16), 4, 2, 0, uint8(0),
		[]byte{0, 0x06, 0, 0x06})
	// Two instructions with different keys in one front slot (Imm + 3
	// and Imm + 7 of this template), taking turns: each sight after the
	// first two misses the front cache and is found through the index.
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0x839a00360000), int64(1<<19-7), int64(8), 0, 0, 0, uint8(0),
		[]byte{0x0d, 0x1d, 0x0d, 0x1d})
	// Runs: 40 words with no taken instruction (cut at maxRun, then the
	// stream's end), a run that repeats, and a stream whose last
	// instruction ends a run that began after a taken one.
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		slices.Repeat([]byte{0, 0x05, 0x0a, 0x11}, 10))
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		[]byte{0x01, 0x06, 0x83, 0x01, 0x06, 0x83, 0x01, 0x06, 0x83})
	f.Add(uint8(isa.OpISlt), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		[]byte{0x01, 0x86, 0x05, 0x09})
	// Address steps at the edge of one word and past it, both ways (the
	// stride's product wraps below 2^32), and far jumps in the top byte.
	for _, stride := range []int64{0x7fff, 0x8000, -0x7fff, -0x8000, 1 << 20} {
		f.Add(uint8(isa.OpLoadS), uint8(isa.KindScalarMem), uint64(0), int64(4), stride, 0, 0, 0, uint8(0),
			[]byte{0, 0, 0, 0, 0, 0})
	}
	f.Add(uint8(isa.OpLoadS), uint8(isa.KindScalarMem), uint64(0), int64(4), int64(16), 0, 0, 0, uint8(0),
		[]byte{0x10, 0x20, 0, 0x7c, 0x7c, 0x04, 0, 0})

	f.Fuzz(func(t *testing.T, op, kind uint8, regs uint64, imm, stride int64, vl, width, ptrStep int, flags uint8, dyn []byte) {
		insts := fuzzTrace(isa.Inst{Op: isa.Op(op), Kind: isa.Kind(kind),
			Dst: isa.Reg(regs), Src1: isa.Reg(regs >> 16), Src2: isa.Reg(regs >> 32), Ptr: isa.Reg(regs >> 48),
			Imm: imm, VL: vl, Stride: stride, Width: width, PtrStep: ptrStep,
			Back: flags&1 != 0, IsStore: flags&2 != 0}, dyn)
		// An opcode or kind the ISA does not define, and a 3D load or
		// move whose register is not a 3D register, are the instructions
		// a stream refuses for their fields; the trace goes on with the
		// opcode and kind wrapped into the ISA and the register moved
		// into the 3D file.
		if bad := slices.Clone(insts); fixRange(insts) {
			if !panics(func() { Compact(bad) }) || !panics(func() { fuzzRec.Record(emitAll(bad)) }) {
				t.Fatal("an opcode or kind the ISA does not define was recorded")
			}
		}
		if bad := slices.Clone(insts); fix3D(insts) {
			if !panics(func() { Compact(bad) }) || !panics(func() { fuzzRec.Record(emitAll(bad)) }) {
				t.Fatal("a 3D load or move of no 3D register was recorded")
			}
		}
		s := Compact(insts)
		if s.Len() != len(insts) {
			t.Fatalf("stream of %d instructions from a trace of %d", s.Len(), len(insts))
		}
		checkRuns(t, s)
		r, st := fuzzRec.Record(emitAll(insts))
		if !reflect.DeepEqual(r, s) {
			t.Fatalf("a reused Recorder and Compact build different streams of one trace")
		}
		rev := make([]isa.Inst, len(insts))
		for i, in := range insts {
			in.Seq = uint64(len(insts) - 1 - i)
			rev[in.Seq] = in
		}
		if r, _ := fuzzRec.Record(emitAll(rev)); !reflect.DeepEqual(r, Compact(rev)) {
			t.Fatalf("a reused Recorder and Compact build different streams of the trace reversed")
		}
		if st.Total != uint64(len(insts)) {
			t.Fatalf("the Recorder's stats count %d instructions of %d", st.Total, len(insts))
		}
		n := 0
		for i, got := range s.All() {
			if got != insts[i] {
				t.Fatalf("instruction %d materialises as %+v, want %+v", i, got, insts[i])
			}
			n++
		}
		if n != len(insts) {
			t.Fatalf("All yielded %d instructions of %d", n, len(insts))
		}
		distinct := map[isa.Inst]bool{}
		addrs, escapes, last := 0, 0, uint32(0)
		for _, in := range insts {
			if a := uint32(in.Addr); a != 0 {
				if step := int32(a - last); step < -0x7fff || step > 0x7fff {
					escapes++
				}
				addrs, last = addrs+1, a
			}
			in.Seq, in.Addr, in.Taken = 0, 0, false
			distinct[in] = true
		}
		if len(s.Addrs) != addrs+2*escapes {
			t.Fatalf("Addrs holds %d words, the trace has %d non-zero addresses, %d of them escapes",
				len(s.Addrs), addrs, escapes)
		}
		if len(s.Static) != len(distinct) {
			t.Fatalf("%d static instructions, the trace has %d distinct", len(s.Static), len(distinct))
		}
		for i, in := range s.Static {
			if !distinct[in] {
				t.Fatalf("static %d is no instruction of the trace stripped of Seq/Addr/Taken: %+v", i, in)
			}
		}

		if len(insts) == 0 {
			return
		}
		at := int(flags) % len(insts)
		bad := slices.Clone(insts)
		bad[at].Seq += 1 + uint64(op)
		if !panics(func() { Compact(bad) }) {
			t.Fatalf("Compact accepted Seq %d at index %d", bad[at].Seq, at)
		}
		bad = slices.Clone(insts)
		bad[at].Addr |= 1 << (32 + regs%32)
		if !panics(func() { Compact(bad) }) {
			t.Fatalf("Compact accepted address %#x at index %d", bad[at].Addr, at)
		}
	})
}

// fuzzRec records every input of FuzzStreamRoundTrip in turn, so an
// input meets the indexes earlier inputs built and front caches just
// cleared: the warm path of a Recorder, which Compact, starting cold
// each time, never takes.
var fuzzRec Recorder

// emitAll is a generator that emits insts.
func emitAll(insts []isa.Inst) func(Sink) {
	return func(sink Sink) {
		for _, in := range insts {
			sink.Emit(in)
		}
	}
}

// fixRange wraps every opcode and kind of insts that the ISA does not
// define into it, and reports whether there was one.
func fixRange(insts []isa.Inst) (found bool) {
	for i := range insts {
		in := &insts[i]
		if int(in.Op) >= isa.NumOps || uint8(in.Kind) >= numKinds {
			in.Op, in.Kind, found = isa.Op(int(in.Op)%isa.NumOps), isa.Kind(uint8(in.Kind)%numKinds), true
		}
	}
	return found
}

// fix3D moves every register a 3D load (Dst) or 3D move (Src1) of
// insts names outside the 3D register file into it, and reports whether
// there was one.
func fix3D(insts []isa.Inst) (found bool) {
	for i := range insts {
		r := &insts[i].Dst
		switch insts[i].Kind {
		case isa.Kind3DMove:
			r = &insts[i].Src1
		case isa.Kind3DLoad:
		default:
			continue
		}
		if r.Class() != isa.RC3D || r.Index() >= isa.Num3DRegs {
			*r, found = isa.D(r.Index()%isa.Num3DRegs), true
		}
	}
	return found
}

// checkRuns holds a stream's run tables to their contract: a run ends
// after a taken instruction or at maxRun words, and nowhere else but at
// the stream's end; Dict holds each distinct run once, the spans tiling
// it in first-seen order; and Spans and Runs end in the sentinel, an
// empty span at Dict's end.
func checkRuns(t *testing.T, s *Stream) {
	t.Helper()
	end := uint32(len(s.Dict))
	nr, ns := len(s.Runs)-1, len(s.Spans)-1
	if nr < 0 || ns < 0 || s.Spans[ns] != (Span{end, end}) || s.Runs[nr] != uint32(ns) {
		t.Fatalf("run tables do not end in the sentinel: spans %v, runs %v", s.Spans, s.Runs)
	}
	seen := map[string]bool{}
	at := uint32(0)
	for i, sp := range s.Spans[:ns] {
		words := s.Dict[sp.At:sp.End]
		if sp.At != at || len(words) == 0 || len(words) > maxRun || seen[fmt.Sprint(words)] {
			t.Fatalf("span %d is %v: not the next 1..%d words of the dictionary, or a run already kept", i, sp, maxRun)
		}
		seen[fmt.Sprint(words)] = true
		at = sp.End
	}
	if at != end {
		t.Fatalf("the spans cover %d of the dictionary's %d words", at, end)
	}
	n, next := 0, 0
	for i, r := range s.Runs[:nr] {
		if int(r) > next || int(r) >= ns {
			t.Fatalf("dynamic run %d is distinct run %d, but %d is the next new one", i, r, next)
		}
		next = max(next, int(r)+1)
		words := s.Dict[s.Spans[r].At:s.Spans[r].End]
		for j, w := range words[:len(words)-1] {
			if w&takenBit != 0 {
				t.Fatalf("dynamic run %d goes on past the taken instruction at its word %d", i, j)
			}
		}
		if last := words[len(words)-1]; i < nr-1 && last&takenBit == 0 && len(words) < maxRun {
			t.Fatalf("dynamic run %d ends after %d words with no taken instruction, before the stream's end", i, len(words))
		}
		n += len(words)
	}
	if n != s.Len() || next != ns {
		t.Fatalf("the runs hold %d words of %d and use %d of %d distinct runs", n, s.Len(), next, ns)
	}
}

// Two different runs whose keys collide must stay two dictionary
// entries, told apart by the full compare on the index chain, and each
// must read back as itself. The key is 32 bits, so a search over the
// 262,144 two-word runs of templates below 512 finds a colliding pair.
func TestRunDictionaryChainsCollidingKeys(t *testing.T) {
	const templates = 512
	var x, y []uint16
	first := map[uint64][]uint16{}
	for a := uint16(0); a < templates && x == nil; a++ {
		for b := uint16(0); b < templates; b++ {
			run := []uint16{a, b | takenBit}
			k := runKey(run)
			if prev, ok := first[k]; ok {
				x, y = prev, run
				break
			}
			first[k] = run
		}
	}
	if x == nil {
		t.Fatal("no two two-word runs share a key")
	}
	// Templates 0..511 first, in order, so template i has index i and
	// the prelude's last run ends at a maxRun cut; then x, y, x, y.
	var insts []isa.Inst
	emit := func(w uint16) {
		insts = append(insts, isa.Inst{Seq: uint64(len(insts)), Op: isa.OpISlt, Kind: isa.KindScalar,
			Imm: int64(w & staticMask), Taken: w&takenBit != 0})
	}
	for i := range uint16(templates) {
		emit(i)
	}
	for _, run := range [][]uint16{x, y, x, y} {
		for _, w := range run {
			emit(w)
		}
	}
	var rec Recorder
	r, _ := rec.Record(func(sink Sink) {
		for _, in := range insts {
			sink.Emit(in)
		}
	})
	for name, s := range map[string]*Stream{"Compact": Compact(insts), "Recorder": r} {
		checkRuns(t, s)
		if got := len(s.Spans) - 1; got != templates/maxRun+2 {
			t.Errorf("%s: %d distinct runs, want the prelude's %d and the two colliding ones", name, got, templates/maxRun)
		}
		for i, got := range s.All() {
			if got != insts[i] {
				t.Fatalf("%s: instruction %d reads back as %+v, want %+v", name, i, got, insts[i])
			}
		}
	}
}

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// A stream holds at most 16,384 static instructions and addresses below
// 2^32. Both limits are met exactly and refused one past, by Compact and
// by a Recorder alike; a stream at the limit reads back as its trace.
func TestStreamLimits(t *testing.T) {
	var rec Recorder
	for _, c := range []struct {
		name    string
		static  int
		addr    uint64
		refused bool
	}{
		{"16,384 static instructions", maxStatic, 8, false},
		{"16,385 static instructions", maxStatic + 1, 8, true},
		{"the highest 32-bit address", 2, 1<<32 - 1, false},
		{"an address at 2^32", 2, 1 << 32, true},
	} {
		// Each instruction is its own template; the last one loads addr.
		insts := make([]isa.Inst, c.static)
		for i := range insts {
			insts[i] = isa.Inst{Seq: uint64(i), Op: isa.OpISlt, Kind: isa.KindScalar, Imm: int64(i)}
		}
		last := &insts[c.static-1]
		last.Op, last.Kind, last.Addr = isa.OpLoadS, isa.KindScalarMem, c.addr
		var s *Stream
		if got := panics(func() { s = Compact(insts) }); got != c.refused {
			t.Errorf("%s: Compact refused it: %v, want %v", c.name, got, c.refused)
		}
		var r *Stream
		gen := func(sink Sink) {
			for _, in := range insts {
				sink.Emit(in)
			}
		}
		if got := panics(func() { r, _ = rec.Record(gen) }); got != c.refused {
			t.Errorf("%s: Recorder refused it: %v, want %v", c.name, got, c.refused)
		}
		for _, s := range []*Stream{s, r} {
			if s == nil {
				continue
			}
			if len(s.Static) != c.static {
				t.Errorf("%s: %d static instructions, want %d", c.name, len(s.Static), c.static)
			}
			for i, got := range s.All() {
				if got != insts[i] {
					t.Fatalf("%s: instruction %d reads back as %+v, want %+v", c.name, i, got, insts[i])
				}
			}
		}
	}
}

// A 3D load names its 3D register in Dst and a 3D move in Src1, and
// Stats counts slices per 3D register: an instruction naming anything
// else there is refused by name, by Compact and a Recorder alike,
// before Stats indexes by it. So is an opcode or a kind the ISA does
// not define, which Stats counts instructions by.
func TestRefuses3DOfNo3DRegister(t *testing.T) {
	var rec Recorder
	for _, c := range []struct {
		in      isa.Inst
		refused bool
	}{
		{isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(1)}, false},
		{isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(7), Src1: isa.D(0)}, false},
		{isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.V(7)}, true},
		{isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(isa.Num3DRegs)}, true},
		{isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.D(0), Src1: isa.R(3)}, true},
		{isa.Inst{Op: isa.Op(isa.NumOps - 1), Kind: isa.KindScalar}, false},
		{isa.Inst{Op: isa.Op(isa.NumOps), Kind: isa.KindScalar}, true},
		{isa.Inst{Op: isa.Op(255), Kind: isa.KindMOM}, true},
		{isa.Inst{Op: isa.OpISlt, Kind: isa.Kind3DMove + 1}, true},
	} {
		var msgs []string
		for _, record := range []func(){
			func() { Compact([]isa.Inst{c.in}) },
			func() { rec.Record(func(sink Sink) { sink.Emit(c.in) }) },
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						msgs = append(msgs, fmt.Sprint(r))
					}
				}()
				record()
			}()
		}
		want := 0
		if c.refused {
			want = 2
		}
		if len(msgs) != want {
			t.Errorf("%v %s (Dst %v, Src1 %v): %d of Compact and Record refused it, want %d",
				c.in.Kind, c.in.Op.Name(), c.in.Dst, c.in.Src1, len(msgs), want)
		}
		for _, m := range msgs {
			if !strings.HasPrefix(m, "trace: instruction 0 of a stream is a "+c.in.Kind.String()) {
				t.Errorf("refused with %q, not by name", m)
			}
		}
	}
}

// An address is a one-word step from the one before it, the first from
// 0, modulo 2^32, while the step is within ±32,767; past that it is an
// escape and its two halves. Each case's addresses read back through
// Compact and a Recorder alike, in the number of words the rule gives.
func TestAddressSteps(t *testing.T) {
	const base = 0x100000
	var rec Recorder
	for _, c := range []struct {
		name  string
		addrs []uint32
		words int
	}{
		{"a first address one step from 0", []uint32{0x7fff, 0x10}, 2},
		{"a first address past a step", []uint32{0x8000, 0x8010}, 4},
		{"steps of ±32,767", []uint32{base, base + 0x7fff, base, base - 0x7fff, base}, 7},
		{"steps of ±32,768", []uint32{base, base + 0x8000, base, base - 0x8000, base - 0x7ff0}, 13},
		{"steps far past a word", []uint32{base, 0x5ff000, 0x10000, 0x10004}, 10},
		{"a wrap through 2^32", []uint32{0xffff_ffff, 0x1, 0xffff_fffe}, 3},
		{"two escapes in a row, then a step", []uint32{0x10000, 0x500000, 0x12344, 0x12346}, 10},
		{"an escape last", []uint32{0x10, 0x20, 0x600000}, 5},
	} {
		// A load per address, each behind an add: every other
		// instruction has none.
		var insts []isa.Inst
		for _, a := range c.addrs {
			insts = append(insts,
				isa.Inst{Seq: uint64(len(insts)), Op: isa.OpISlt, Kind: isa.KindScalar, Imm: 1},
				isa.Inst{Seq: uint64(len(insts) + 1), Op: isa.OpLoadS, Kind: isa.KindScalarMem, Imm: 4, Addr: uint64(a)})
		}
		r, _ := rec.Record(func(sink Sink) {
			for _, in := range insts {
				sink.Emit(in)
			}
		})
		for name, s := range map[string]*Stream{"Compact": Compact(insts), "Recorder": r} {
			if len(s.Addrs) != c.words {
				t.Errorf("%s: %s: %d address words for %d addresses, want %d", c.name, name, len(s.Addrs), len(c.addrs), c.words)
			}
			for i, got := range s.All() {
				if got != insts[i] {
					t.Errorf("%s: %s: instruction %d reads back with address %#x, want %#x", c.name, name, i, got.Addr, insts[i].Addr)
					break
				}
			}
		}
	}
}

// Instructions that differ only in a field the instruction key omits
// share one index key, and the key's chain must tell them apart with
// the full compare: distinct static entries, in first-seen order, and a
// stream that materialises as the trace it was made of.
func TestInternerChainsCollidingKeys(t *testing.T) {
	base := isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(1), Src1: isa.R(2), VL: 8, Stride: 64, Width: 2}
	variants := []isa.Inst{base, base, base, base, base, base, base}
	variants[1].Kind = isa.KindMOMMem
	variants[2].Ptr = isa.P(1)
	variants[3].Width = 3
	variants[4].PtrStep = -8
	variants[5].Back = true
	variants[6].IsStore = true
	var insts []isa.Inst
	for range 3 {
		for _, in := range variants {
			in.Seq = uint64(len(insts))
			insts = append(insts, in)
		}
	}
	s := Compact(insts)
	if !slices.Equal(s.Static, variants) {
		t.Fatalf("static table %+v, want the %d variants in first-seen order", s.Static, len(variants))
	}
	for i, got := range s.All() {
		if got != insts[i] {
			t.Fatalf("instruction %d materialises as %+v, want %+v", i, got, insts[i])
		}
	}
}

// Compact stages a trace in storage sized to it, and builds an index
// only when its front cache needs one: a 3-instruction trace allocates
// well under a kilobyte in 10 mallocs, where staging in a Recorder's
// 128 KiB chunks took 263 KB in 19.
func TestCompactAllocatesItsTrace(t *testing.T) {
	insts := []isa.Inst{
		{Seq: 0, Op: isa.OpISlt, Kind: isa.KindScalar, Imm: 1},
		{Seq: 1, Op: isa.OpLoadS, Kind: isa.KindScalarMem, Addr: 0x1000},
		{Seq: 2, Op: isa.OpISlt, Kind: isa.KindScalar, Imm: 1, Taken: true},
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		Compact(insts)
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	if kb >= 4 || mallocs >= 12 {
		t.Errorf("Compact of a 3-instruction trace allocates %.2f KB in %.1f mallocs, want < 4 KB and < 12: "+
			"does it stage in a Recorder's chunks again, or build an index it does not need?", kb, mallocs)
	} else {
		t.Logf("Compact of a 3-instruction trace allocates %.2f KB in %.1f mallocs", kb, mallocs)
	}
}
