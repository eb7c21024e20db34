package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mmem"
	"repro/internal/usimd"
)

// refPacked mirrors the emulator's packed dispatch table against the
// usimd functions directly, so every opcode's wiring is verified.
var packedRef = map[isa.Op]func(a, b uint64) uint64{
	isa.OpPAddW:     usimd.PAddW,
	isa.OpPAddD:     usimd.PAddD,
	isa.OpPSubW:     usimd.PSubW,
	isa.OpPMullW:    usimd.PMullW,
	isa.OpPMulhW:    usimd.PMulhW,
	isa.OpPMAddWD:   usimd.PMAddWD,
	isa.OpPAvgB:     usimd.PAvgB,
	isa.OpPSadBW:    usimd.PSadBW,
	isa.OpPXor:      usimd.PXor,
	isa.OpPackUSWB:  usimd.PackUSWB,
	isa.OpPackSSDW:  usimd.PackSSDW,
	isa.OpPUnpckLBW: usimd.PUnpckLBW,
	isa.OpPUnpckHBW: usimd.PUnpckHBW,
	isa.OpPUnpckLWD: usimd.PUnpckLWD,
	isa.OpPUnpckHWD: usimd.PUnpckHWD,
	isa.OpPUnpckLDQ: usimd.PUnpckLDQ,
	isa.OpPUnpckHDQ: usimd.PUnpckHDQ,
}

var packedImmRef = map[isa.Op]func(a uint64, n int) uint64{
	isa.OpPSraW:  usimd.PSraW,
	isa.OpPSraD:  usimd.PSraD,
	isa.OpPSrlQ:  usimd.PSrlQ,
	isa.OpPShufW: func(a uint64, n int) uint64 { return usimd.PShufW(a, n) },
}

// TestPackedDispatchUSIMD checks every two-source packed opcode under the
// μSIMD kind against its usimd implementation with random operands.
func TestPackedDispatchUSIMD(t *testing.T) {
	m := New(mmem.New())
	for op, ref := range packedRef {
		f := func(a, b uint64) bool {
			m.Vec[1][0], m.Vec[2][0] = a, b
			in := isa.Inst{Op: op, Kind: isa.KindUSIMD, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(2)}
			if err := m.Exec(&in); err != nil {
				return false
			}
			return m.Vec[3][0] == ref(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
}

// TestPackedDispatchMOM checks the same opcodes applied per element under
// the MOM kind: every element must match, untouched elements must stay.
func TestPackedDispatchMOM(t *testing.T) {
	m := New(mmem.New())
	for op, ref := range packedRef {
		f := func(a, b uint64, vlRaw uint8) bool {
			vl := int(vlRaw%16) + 1
			for e := 0; e < isa.MOMElems; e++ {
				m.Vec[1][e] = a + uint64(e)
				m.Vec[2][e] = b ^ uint64(e)<<8
				m.Vec[3][e] = 0xdead
			}
			in := isa.Inst{Op: op, Kind: isa.KindMOM, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(2), VL: vl}
			if err := m.Exec(&in); err != nil {
				return false
			}
			for e := 0; e < vl; e++ {
				if m.Vec[3][e] != ref(a+uint64(e), b^uint64(e)<<8) {
					return false
				}
			}
			for e := vl; e < isa.MOMElems; e++ {
				if m.Vec[3][e] != 0xdead {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
}

// TestPackedDispatchImmediates checks the shift/shuffle opcodes.
func TestPackedDispatchImmediates(t *testing.T) {
	m := New(mmem.New())
	for op, ref := range packedImmRef {
		f := func(a uint64, nRaw uint8) bool {
			n := int(nRaw % 70)
			if op == isa.OpPShufW {
				n = int(nRaw) // full 8-bit control
			}
			m.Vec[1][0] = a
			in := isa.Inst{Op: op, Kind: isa.KindUSIMD, Dst: isa.V(2), Src1: isa.V(1), Imm: int64(n)}
			if err := m.Exec(&in); err != nil {
				return false
			}
			return m.Vec[2][0] == ref(a, n)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", op.Name(), err)
		}
	}
}

// TestMOMLoadStoreRoundTripProperty: strided store then strided load of
// random data restores the register contents.
func TestMOMLoadStoreRoundTripProperty(t *testing.T) {
	m := New(mmem.New())
	f := func(vals [16]uint64, strideRaw uint8, vlRaw uint8) bool {
		vl := int(vlRaw%16) + 1
		stride := int64(strideRaw%7+1) * 8 // multiples of 8 up to 56
		for e, v := range vals {
			m.Vec[1][e] = v
		}
		st := isa.Inst{Op: isa.OpVStore, Kind: isa.KindMOMMem, Src2: isa.V(1),
			VL: vl, Stride: stride, Addr: 0x40000, IsStore: true}
		ld := isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(2),
			VL: vl, Stride: stride, Addr: 0x40000}
		if m.Exec(&st) != nil || m.Exec(&ld) != nil {
			return false
		}
		for e := 0; e < vl; e++ {
			if m.Vec[2][e] != vals[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestD3SliceEquivalence: a 3dvmov slice at pointer p equals a MOM load
// of the same memory at base+p — the architectural equivalence that makes
// 3D memory vectorization a pure memory-system optimization.
func TestD3SliceEquivalence(t *testing.T) {
	m := New(mmem.New())
	f := func(seed uint64, pRaw uint8, vlRaw uint8) bool {
		vl := int(vlRaw%16) + 1
		p := int(pRaw % 120)
		const base, stride = 0x50000, 256
		x := seed | 1
		for i := 0; i < stride*16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m.Mem.Write(base+uint64(i), []byte{uint8(x)})
		}
		dv := isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0),
			VL: vl, Stride: stride, Width: 16, Addr: base}
		if m.Exec(&dv) != nil {
			return false
		}
		m.Ptr[0] = p
		mv := isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1),
			Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 0, VL: vl}
		ld := isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(2),
			VL: vl, Stride: stride, Addr: base + uint64(p)}
		if m.Exec(&mv) != nil || m.Exec(&ld) != nil {
			return false
		}
		for e := 0; e < vl; e++ {
			if m.Vec[1][e] != m.Vec[2][e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPackedRefsCoverEveryPackedOp: every packed opcode has exactly one
// reference above, under the immediates exactly when it takes one, so
// the dispatch tests leave none of them out.
func TestPackedRefsCoverEveryPackedOp(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !op.IsPacked() {
			continue
		}
		_, two := packedRef[op]
		_, imm := packedImmRef[op]
		if two == imm || op.HasImm() != imm {
			t.Errorf("%s: two-source reference %v, immediate reference %v, HasImm %v", op.Name(), two, imm, op.HasImm())
		}
	}
}
