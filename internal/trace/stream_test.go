package trace

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

const numKinds = uint8(isa.Kind3DMove) + 1

// fuzzTrace builds a trace from fuzz input: a template with any value
// in every field, and one dynamic instruction per byte of dyn. The
// byte's low bits pick one of a few variations of the template, so the
// trace revisits static instructions the way a loop does; the rest of
// it, with the index, makes the address and the outcome.
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
		in.Seq, in.Addr, in.Taken = uint64(i), uint64(tmpl.Stride)*uint64(i)^uint64(b)<<40, b&0x80 != 0
		insts[i] = in
	}
	return insts
}

// Compact then All is the identity on any trace whose Seq is the index,
// whatever the fields hold — an address or an outcome on any kind, a
// zero address on a memory kind; the static table is exactly the
// distinct instructions modulo Seq/Addr/Taken, stripped of those three;
// Addrs holds exactly the non-zero addresses; and a Seq that is not the
// index is refused, wherever it sits.
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

	f.Fuzz(func(t *testing.T, op, kind uint8, regs uint64, imm, stride int64, vl, width, ptrStep int, flags uint8, dyn []byte) {
		insts := fuzzTrace(isa.Inst{Op: isa.Op(op), Kind: isa.Kind(kind % numKinds),
			Dst: isa.Reg(regs), Src1: isa.Reg(regs >> 16), Src2: isa.Reg(regs >> 32), Ptr: isa.Reg(regs >> 48),
			Imm: imm, VL: vl, Stride: stride, Width: width, PtrStep: ptrStep,
			Back: flags&1 != 0, IsStore: flags&2 != 0}, dyn)
		s := Compact(insts)
		if len(s.Ops) != len(insts) {
			t.Fatalf("stream of %d instructions from a trace of %d", len(s.Ops), len(insts))
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
		var addrs []uint64
		for _, in := range insts {
			if in.Addr != 0 {
				addrs = append(addrs, in.Addr)
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
		insts[at].Seq += 1 + uint64(op)
		defer func() {
			if recover() == nil {
				t.Fatalf("Compact accepted Seq %d at index %d", insts[at].Seq, at)
			}
		}()
		Compact(insts)
	})
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
