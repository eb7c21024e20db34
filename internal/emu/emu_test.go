package emu

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mmem"
	"repro/internal/usimd"
)

func newM() *Machine { return New(mmem.New()) }

func mustExec(t *testing.T, m *Machine, in isa.Inst) {
	t.Helper()
	if err := m.Exec(&in); err != nil {
		t.Fatalf("exec %s: %v", in.String(), err)
	}
}

func TestScalarALU(t *testing.T) {
	m := newM()
	mustExec(t, m, isa.Inst{Op: isa.OpIMovImm, Kind: isa.KindScalar, Dst: isa.R(1), Imm: 40})
	mustExec(t, m, isa.Inst{Op: isa.OpIMovImm, Kind: isa.KindScalar, Dst: isa.R(2), Imm: -2})
	mustExec(t, m, isa.Inst{Op: isa.OpIMov, Kind: isa.KindScalar, Dst: isa.R(3), Src1: isa.R(2)})
	if m.IntVal(isa.R(3)) != -2 {
		t.Errorf("mov: %d", m.IntVal(isa.R(3)))
	}
	mustExec(t, m, isa.Inst{Op: isa.OpIShl, Kind: isa.KindScalar, Dst: isa.R(4), Src1: isa.R(2), Imm: 3})
	if m.IntVal(isa.R(4)) != -16 {
		t.Errorf("shl: %d", m.IntVal(isa.R(4)))
	}
	mustExec(t, m, isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar, Dst: isa.R(5), Src1: isa.R(2), Src2: isa.R(1)})
	if m.IntVal(isa.R(5)) != 1 {
		t.Error("slt must be signed")
	}
	mustExec(t, m, isa.Inst{Op: isa.OpISra, Kind: isa.KindScalar, Dst: isa.R(6), Src1: isa.R(4), Imm: 2})
	if m.IntVal(isa.R(6)) != -4 {
		t.Errorf("sra must be arithmetic: %d", m.IntVal(isa.R(6)))
	}
}

// An opcode whose result moves with Imm must be marked in the opcode
// table (Op.HasImm), or the disassembly hides an operand emu reads:
// every scalar and packed opcode runs with two Imm values from one
// register state.
func TestImmIsReadOnlyWhenMarked(t *testing.T) {
	seed := newM()
	for r := range seed.Int {
		seed.Int[r] = 0x0123456789abcdef * uint64(r+1)
	}
	for r := range seed.Vec {
		for e := range seed.Vec[r] {
			seed.Vec[r][e] = 0xfedcba9876543210 ^ uint64(r<<8|e)
		}
	}
	for r := range seed.Acc {
		seed.Acc[r] = int64(r+1) << 20
	}
	for op := range isa.Op(isa.NumOps) {
		in := isa.Inst{Op: op, Kind: isa.KindScalar, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)}
		switch {
		case op.IsPacked():
			in.Kind, in.Dst, in.Src1, in.Src2 = isa.KindUSIMD, isa.V(3), isa.V(1), isa.V(2)
		case op == isa.OpAccMov:
			in.Src1 = isa.A(1)
		case op == isa.OpAccClr:
			in.Dst = isa.A(1)
		case op == isa.OpVMovV2I:
			in.Src1 = isa.V(1)
		}
		var after [2]Machine
		var err error
		for i, imm := range []int64{1, 3} {
			after[i], in.Imm = *seed, imm
			err = errors.Join(err, after[i].Exec(&in))
		}
		moved := after[0].Int != after[1].Int || after[0].Vec != after[1].Vec || after[0].Acc != after[1].Acc
		switch {
		case err != nil && op.IsPacked():
			t.Fatalf("%s: %v", op.Name(), err)
		case err == nil && moved && !op.HasImm(): // an erring opcode is not scalar
			t.Errorf("%s reads Imm, but the opcode table does not mark it", op.Name())
		}
	}
}

// lds and st move halfwords (Imm 2); every other width is refused.
func TestScalarMemory(t *testing.T) {
	m := newM()
	m.Int[1] = 0x12348765
	mustExec(t, m, isa.Inst{Op: isa.OpStore, Kind: isa.KindScalarMem, Src2: isa.R(1), Imm: 2, Addr: 0x100, IsStore: true})
	if got := m.Mem.ReadU64(0x100); got != 0x8765 {
		t.Errorf("halfword store wrote %#x, want the low 16 bits 0x8765", got)
	}
	mustExec(t, m, isa.Inst{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: isa.R(2), Imm: 2, Addr: 0x100})
	if got := m.IntVal(isa.R(2)); got != int64(int16(-0x789b)) {
		t.Errorf("sign-extended halfword = %d, want %d", got, int16(-0x789b))
	}
	for _, size := range []int64{1, 3, 4, 8} {
		ld := isa.Inst{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: isa.R(3), Imm: size, Addr: 0x200}
		st := isa.Inst{Op: isa.OpStore, Kind: isa.KindScalarMem, Src2: isa.R(1), Imm: size, Addr: 0x200, IsStore: true}
		if m.Exec(&ld) == nil || m.Exec(&st) == nil {
			t.Errorf("scalar load and store of size %d must fail", size)
		}
	}
	if m.IntVal(isa.R(3)) != 0 || m.Mem.ReadU64(0x200) != 0 {
		t.Error("a refused scalar load or store changed state")
	}
}

func TestUSIMDOps(t *testing.T) {
	m := newM()
	m.Vec[1][0] = 0x0102030405060708
	m.Vec[2][0] = 0x1010101010101010
	mustExec(t, m, isa.Inst{Op: isa.OpPAddW, Kind: isa.KindUSIMD, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(2)})
	if m.Vec[3][0] != usimd.PAddW(0x0102030405060708, 0x1010101010101010) {
		t.Error("usimd paddw mismatch")
	}
	mustExec(t, m, isa.Inst{Op: isa.OpPSraW, Kind: isa.KindUSIMD, Dst: isa.V(4), Src1: isa.V(1), Imm: 4})
	if m.Vec[4][0] != usimd.PSraW(0x0102030405060708, 4) {
		t.Error("usimd shift mismatch")
	}
	// Missing second source on a two-source op is an error.
	in := isa.Inst{Op: isa.OpPAddW, Kind: isa.KindUSIMD, Dst: isa.V(3), Src1: isa.V(1)}
	if err := m.Exec(&in); err == nil {
		t.Error("paddw without src2 must fail")
	}
}

func TestMOMElementwise(t *testing.T) {
	m := newM()
	for e := 0; e < 8; e++ {
		m.Vec[1][e] = uint64(e) * 0x0101010101010101
		m.Vec[2][e] = 0x0202020202020202
	}
	m.Vec[1][9] = 0xdead // beyond VL, must not be touched
	mustExec(t, m, isa.Inst{Op: isa.OpPAddW, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.V(1), Src2: isa.V(2), VL: 8})
	for e := 0; e < 8; e++ {
		want := usimd.PAddW(uint64(e)*0x0101010101010101, 0x0202020202020202)
		if m.Vec[1][e] != want {
			t.Errorf("elem %d: got %x want %x", e, m.Vec[1][e], want)
		}
	}
	if m.Vec[1][9] != 0xdead {
		t.Error("elements beyond VL must be untouched")
	}
	// VL out of range.
	in := isa.Inst{Op: isa.OpPAddW, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.V(1), Src2: isa.V(2), VL: 17}
	if err := m.Exec(&in); err == nil {
		t.Error("VL=17 must fail")
	}
}

func TestMOMMemoryStrided(t *testing.T) {
	m := newM()
	const stride = 176
	for e := 0; e < 8; e++ {
		m.Mem.WriteU64(0x1000+uint64(e*stride), uint64(e)+1)
	}
	mustExec(t, m, isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(1),
		VL: 8, Stride: stride, Addr: 0x1000})
	for e := 0; e < 8; e++ {
		if m.Vec[1][e] != uint64(e)+1 {
			t.Errorf("elem %d = %d", e, m.Vec[1][e])
		}
	}
	mustExec(t, m, isa.Inst{Op: isa.OpVStore, Kind: isa.KindMOMMem, Src2: isa.V(1),
		VL: 8, Stride: 8, Addr: 0x8000, IsStore: true})
	for e := 0; e < 8; e++ {
		if m.Mem.ReadU64(0x8000+uint64(e*8)) != uint64(e)+1 {
			t.Errorf("stored elem %d wrong", e)
		}
	}
}

func TestAccumulators(t *testing.T) {
	m := newM()
	for e := 0; e < 4; e++ {
		m.Vec[1][e] = 0x0a0a0a0a0a0a0a0a
		m.Vec[2][e] = 0x0d070d070d070d07
	}
	mustExec(t, m, isa.Inst{Op: isa.OpAccClr, Kind: isa.KindScalar, Dst: isa.A(0)})
	mustExec(t, m, isa.Inst{Op: isa.OpVSadAcc, Kind: isa.KindMOM, Dst: isa.A(0), Src1: isa.V(1), Src2: isa.V(2), VL: 4})
	// per element SAD = 8 * 3 = 24; 4 elements = 96
	if m.Acc[0] != 96 {
		t.Errorf("vsadacc = %d, want 96", m.Acc[0])
	}
	// Accumulation continues without clear.
	mustExec(t, m, isa.Inst{Op: isa.OpVSadAcc, Kind: isa.KindMOM, Dst: isa.A(0), Src1: isa.V(1), Src2: isa.V(2), VL: 1})
	if m.Acc[0] != 120 {
		t.Errorf("accumulate = %d, want 120", m.Acc[0])
	}
	mustExec(t, m, isa.Inst{Op: isa.OpAccMov, Kind: isa.KindScalar, Dst: isa.R(1), Src1: isa.A(0)})
	if m.IntVal(isa.R(1)) != 120 {
		t.Error("accmov wrong")
	}

	// Dot product accumulate: elements of (1,2,3,4)·(2,2,2,2) = 20 each.
	m.Vec[5][0] = 0x0004000300020001
	m.Vec[5][1] = 0x000000000001ffff
	m.Vec[6][0] = 0x0002000200020002
	m.Vec[6][1] = 0x0000000000050005
	mustExec(t, m, isa.Inst{Op: isa.OpAccClr, Kind: isa.KindScalar, Dst: isa.A(1)})
	mustExec(t, m, isa.Inst{Op: isa.OpVMacAcc, Kind: isa.KindMOM, Dst: isa.A(1), Src1: isa.V(5), Src2: isa.V(6), VL: 2})
	if m.Acc[1] != 20 { // 20 + (-5 + 5)
		t.Errorf("vmacacc = %d, want 20", m.Acc[1])
	}
}

func TestD3LoadAndMove(t *testing.T) {
	m := newM()
	// Lay out 4 rows of 128 consecutive bytes 0..127, row base 0x1000+r*256.
	for r := 0; r < 4; r++ {
		for i := 0; i < 128; i++ {
			m.Mem.Write(0x1000+uint64(r*256+i), []byte{uint8(i)})
		}
	}
	mustExec(t, m, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0),
		VL: 4, Stride: 256, Width: 16, Addr: 0x1000})
	if m.Ptr[0] != 0 {
		t.Errorf("pointer after front load = %d", m.Ptr[0])
	}
	// First slice: bytes 0..7 of each row.
	mustExec(t, m, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1),
		Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 1, VL: 4})
	want := uint64(0x0706050403020100)
	for e := 0; e < 4; e++ {
		if m.Vec[1][e] != want {
			t.Errorf("slice0 elem %d = %x, want %x", e, m.Vec[1][e], want)
		}
	}
	if m.Ptr[0] != 1 {
		t.Errorf("pointer after move = %d, want 1", m.Ptr[0])
	}
	// Second slice at byte offset 1 (unaligned; shift&mask path).
	mustExec(t, m, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(2),
		Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 1, VL: 4})
	want = 0x0807060504030201
	if m.Vec[2][0] != want {
		t.Errorf("slice1 = %x, want %x", m.Vec[2][0], want)
	}
}

func TestD3BackPointerAndNegativeStep(t *testing.T) {
	m := newM()
	for i := 0; i < 32; i++ {
		m.Mem.Write(0x100+uint64(i), []byte{uint8(i)})
	}
	// Width 4 words = 32 bytes; back pointer starts at last sub-block (24).
	mustExec(t, m, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(1),
		VL: 1, Stride: 0, Width: 4, Back: true, Addr: 0x100})
	if m.Ptr[1] != 24 {
		t.Fatalf("back pointer = %d, want 24", m.Ptr[1])
	}
	mustExec(t, m, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1),
		Src1: isa.D(1), Ptr: isa.P(1), PtrStep: -8, VL: 1})
	if m.Vec[1][0] != 0x1f1e1d1c1b1a1918 {
		t.Errorf("back slice = %x", m.Vec[1][0])
	}
	if m.Ptr[1] != 16 {
		t.Errorf("pointer after -8 = %d, want 16", m.Ptr[1])
	}
}

func TestD3LoadClearsStaleWords(t *testing.T) {
	m := newM()
	m.D3[0][0][15] = 0xdeadbeef
	mustExec(t, m, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0),
		VL: 1, Stride: 0, Width: 2, Addr: 0})
	if m.D3[0][0][15] != 0 {
		t.Error("partial-width load must clear stale high words")
	}
}

func TestD3SliceAtRegisterEnd(t *testing.T) {
	m := newM()
	for i := 0; i < 128; i++ {
		m.Mem.Write(uint64(i), []byte{uint8(i)})
	}
	mustExec(t, m, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0),
		VL: 1, Stride: 0, Width: 16, Addr: 0})
	// Move the pointer to offset 124: the slice spans past the end and the
	// missing bytes read as zero.
	m.Ptr[0] = 124
	mustExec(t, m, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1),
		Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 0, VL: 1})
	want := uint64(0x000000007f7e7d7c)
	if m.Vec[1][0] != want {
		t.Errorf("end slice = %x, want %x", m.Vec[1][0], want)
	}
}

func TestD3PointerWraps(t *testing.T) {
	m := newM()
	mustExec(t, m, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0),
		VL: 1, Stride: 0, Width: 16, Addr: 0})
	m.Ptr[0] = 127
	mustExec(t, m, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1),
		Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 2, VL: 1})
	if m.Ptr[0] != 1 {
		t.Errorf("pointer wrap: %d, want 1", m.Ptr[0])
	}
}

func TestExecErrors(t *testing.T) {
	m := newM()
	bad := []isa.Inst{
		{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.V(0), VL: 1, Width: 1},                     // dst not 3D
		{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0), VL: 1, Width: 17},                    // width too large
		{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0), VL: 0, Width: 1},                     // VL 0
		{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(0), Src1: isa.V(1), VL: 1},                // src not 3D
		{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(0), Src1: isa.D(0), Ptr: isa.P(1), VL: 1}, // ptr mismatch
		{Op: isa.OpVSadAcc, Kind: isa.KindMOM, Dst: isa.V(0), Src1: isa.V(1), Src2: isa.V(2), VL: 1},  // dst not acc
		{Op: isa.OpISlt, Kind: isa.KindScalar, Dst: isa.V(0), Src1: isa.R(0), Src2: isa.R(0)},         // dst not int
		{Op: isa.OpPAddW, Kind: isa.KindUSIMD, Dst: isa.R(0), Src1: isa.V(0), Src2: isa.V(1)},         // dst not vec
	}
	for i := range bad {
		if err := m.Exec(&bad[i]); err == nil {
			t.Errorf("case %d (%s): expected error", i, bad[i].String())
		}
	}
}

func TestSplatAndMoves(t *testing.T) {
	m := newM()
	m.Int[1] = 0xabcd
	mustExec(t, m, isa.Inst{Op: isa.OpVSplatW, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.R(1), VL: 3})
	for e := 0; e < 3; e++ {
		if m.Vec[1][e] != 0xabcdabcdabcdabcd {
			t.Errorf("splat elem %d = %x", e, m.Vec[1][e])
		}
	}
	m.Vec[3][5] = 777
	mustExec(t, m, isa.Inst{Op: isa.OpVMovV2I, Kind: isa.KindScalar, Dst: isa.R(2), Src1: isa.V(3), Imm: 5})
	if m.IntVal(isa.R(2)) != 777 {
		t.Error("vmovv2i wrong")
	}
}
