package trace

import (
	"fmt"
	"slices"
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
// kept once (checkRuns); Addrs holds exactly the non-zero addresses;
// and a Seq that is not the index, or an address at or beyond 2^32, is
// refused wherever it sits.
func FuzzStreamRoundTrip(f *testing.F) {
	loop := []byte{0, 0x85, 0x0a, 0xff, 0, 0x85, 0x0a, 0xff, 0x12, 0x13, 0, 0x85, 0x0a, 0xff}
	for k := uint8(0); k < numKinds; k++ {
		regs := uint64(isa.V(int(k))) | uint64(isa.R(3))<<16 | uint64(isa.D(1))<<32 | uint64(isa.P(1))<<48
		f.Add(uint8(isa.OpLoad)+k, k, regs, int64(-(1 << 40)), int64(-640), 16, 16, -8, k, loop)
	}
	f.Add(uint8(0), uint8(0), uint64(0), int64(0), int64(0), 0, 0, 0, uint8(0), []byte{})
	// A non-memory instruction with an address, a memory instruction at
	// address 0, a taken instruction that is no branch.
	f.Add(uint8(isa.OpIAdd), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0), []byte{0x10, 0x20, 0x30})
	f.Add(uint8(isa.OpLoad), uint8(isa.KindScalarMem), uint64(0), int64(4), int64(0), 0, 0, 0, uint8(0), []byte{0, 0, 0})
	f.Add(uint8(isa.OpIAdd), uint8(isa.KindScalar), uint64(0), int64(0), int64(0), 0, 0, 0, uint8(0), []byte{0x80, 0, 0x80})
	// Two instructions that differ only in Kind, which the interner's key
	// omits: one key, two static entries.
	f.Add(uint8(isa.Op3DVLoad), uint8(isa.Kind3DLoad), uint64(0), int64(0), int64(16), 4, 2, 0, uint8(0), []byte{0, 0x06, 0, 0x06})
	// Runs: 40 words with no taken instruction (cut at maxRun, then the
	// stream's end), a run that repeats, and a stream whose last
	// instruction ends a run that began after a taken one.
	f.Add(uint8(isa.OpIAdd), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		slices.Repeat([]byte{0, 0x05, 0x0a, 0x11}, 10))
	f.Add(uint8(isa.OpIAdd), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		[]byte{0x01, 0x06, 0x83, 0x01, 0x06, 0x83, 0x01, 0x06, 0x83})
	f.Add(uint8(isa.OpIAdd), uint8(isa.KindScalar), uint64(0), int64(0), int64(8), 0, 0, 0, uint8(0),
		[]byte{0x01, 0x86, 0x05, 0x09})

	f.Fuzz(func(t *testing.T, op, kind uint8, regs uint64, imm, stride int64, vl, width, ptrStep int, flags uint8, dyn []byte) {
		insts := fuzzTrace(isa.Inst{Op: isa.Op(op), Kind: isa.Kind(kind % numKinds),
			Dst: isa.Reg(regs), Src1: isa.Reg(regs >> 16), Src2: isa.Reg(regs >> 32), Ptr: isa.Reg(regs >> 48),
			Imm: imm, VL: vl, Stride: stride, Width: width, PtrStep: ptrStep,
			Back: flags&1 != 0, IsStore: flags&2 != 0}, dyn)
		s := Compact(insts)
		if s.Len() != len(insts) {
			t.Fatalf("stream of %d instructions from a trace of %d", s.Len(), len(insts))
		}
		checkRuns(t, s)
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
		var addrs []uint32
		for _, in := range insts {
			if in.Addr != 0 {
				addrs = append(addrs, uint32(in.Addr))
			}
			in.Seq, in.Addr, in.Taken = 0, 0, false
			distinct[in] = true
		}
		if !slices.Equal(s.Addrs, addrs) {
			t.Fatalf("Addrs holds %d entries, the trace has %d non-zero addresses", len(s.Addrs), len(addrs))
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
	first := map[uint32][]uint16{}
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
		insts = append(insts, isa.Inst{Seq: uint64(len(insts)), Op: isa.OpIAdd, Kind: isa.KindScalar,
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
			insts[i] = isa.Inst{Seq: uint64(i), Op: isa.OpIAdd, Kind: isa.KindScalar, Imm: int64(i)}
		}
		last := &insts[c.static-1]
		last.Op, last.Kind, last.Addr = isa.OpLoad, isa.KindScalarMem, c.addr
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

// Instructions that differ only in a field the interner's key omits
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
