package emu

import (
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
	mustExec(t, m, isa.Inst{Op: isa.OpIAdd, Kind: isa.KindScalar, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)})
	if m.IntVal(isa.R(3)) != 38 {
		t.Errorf("add: %d", m.IntVal(isa.R(3)))
	}
	mustExec(t, m, isa.Inst{Op: isa.OpIMul, Kind: isa.KindScalar, Dst: isa.R(4), Src1: isa.R(1), Src2: isa.R(2)})
	if m.IntVal(isa.R(4)) != -80 {
		t.Errorf("mul: %d", m.IntVal(isa.R(4)))
	}
	mustExec(t, m, isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar, Dst: isa.R(5), Src1: isa.R(2), Src2: isa.R(1)})
	if m.IntVal(isa.R(5)) != 1 {
		t.Error("slt must be signed")
	}
	mustExec(t, m, isa.Inst{Op: isa.OpIMin, Kind: isa.KindScalar, Dst: isa.R(6), Src1: isa.R(1), Src2: isa.R(2)})
	mustExec(t, m, isa.Inst{Op: isa.OpIMax, Kind: isa.KindScalar, Dst: isa.R(7), Src1: isa.R(1), Src2: isa.R(2)})
	if m.IntVal(isa.R(6)) != -2 || m.IntVal(isa.R(7)) != 40 {
		t.Error("min/max wrong")
	}
}

func TestScalarMemory(t *testing.T) {
	m := newM()
	m.Int[1] = 0x1234567890
	mustExec(t, m, isa.Inst{Op: isa.OpStore, Kind: isa.KindScalarMem, Src2: isa.R(1), Imm: 8, Addr: 0x100, IsStore: true})
	mustExec(t, m, isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem, Dst: isa.R(2), Imm: 8, Addr: 0x100})
	if m.IntVal(isa.R(2)) != 0x1234567890 {
		t.Error("64-bit round trip failed")
	}
	// Sign extension.
	m.Mem.WriteU8(0x200, 0xff)
	mustExec(t, m, isa.Inst{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: isa.R(3), Imm: 1, Addr: 0x200})
	if m.IntVal(isa.R(3)) != -1 {
		t.Errorf("sign-extended byte = %d, want -1", m.IntVal(isa.R(3)))
	}
	mustExec(t, m, isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem, Dst: isa.R(4), Imm: 1, Addr: 0x200})
	if m.IntVal(isa.R(4)) != 255 {
		t.Errorf("zero-extended byte = %d, want 255", m.IntVal(isa.R(4)))
	}
	// Bad size is an error.
	in := isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem, Dst: isa.R(5), Imm: 3, Addr: 0}
	if err := m.Exec(&in); err == nil {
		t.Error("load size 3 must fail")
	}
}

func TestUSIMDOps(t *testing.T) {
	m := newM()
	m.Vec[1][0] = 0x0102030405060708
	m.Vec[2][0] = 0x1010101010101010
	mustExec(t, m, isa.Inst{Op: isa.OpPAddB, Kind: isa.KindUSIMD, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(2)})
	if m.Vec[3][0] != usimd.PAddB(0x0102030405060708, 0x1010101010101010) {
		t.Error("usimd paddb mismatch")
	}
	mustExec(t, m, isa.Inst{Op: isa.OpPSllW, Kind: isa.KindUSIMD, Dst: isa.V(4), Src1: isa.V(1), Imm: 4})
	if m.Vec[4][0] != usimd.PSllW(0x0102030405060708, 4) {
		t.Error("usimd shift mismatch")
	}
	// Missing second source on a two-source op is an error.
	in := isa.Inst{Op: isa.OpPAddB, Kind: isa.KindUSIMD, Dst: isa.V(3), Src1: isa.V(1)}
	if err := m.Exec(&in); err == nil {
		t.Error("paddb without src2 must fail")
	}
}

func TestMOMElementwise(t *testing.T) {
	m := newM()
	for e := 0; e < 8; e++ {
		m.Vec[1][e] = uint64(e) * 0x0101010101010101
		m.Vec[2][e] = 0x0202020202020202
	}
	m.Vec[1][9] = 0xdead // beyond VL, must not be touched
	mustExec(t, m, isa.Inst{Op: isa.OpPAddB, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.V(1), Src2: isa.V(2), VL: 8})
	for e := 0; e < 8; e++ {
		want := usimd.PAddB(uint64(e)*0x0101010101010101, 0x0202020202020202)
		if m.Vec[1][e] != want {
			t.Errorf("elem %d: got %x want %x", e, m.Vec[1][e], want)
		}
	}
	if m.Vec[1][9] != 0xdead {
		t.Error("elements beyond VL must be untouched")
	}
	// VL out of range.
	in := isa.Inst{Op: isa.OpPAddB, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.V(1), Src2: isa.V(2), VL: 17}
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
			m.Mem.WriteU8(0x1000+uint64(r*256+i), uint8(i))
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
		m.Mem.WriteU8(0x100+uint64(i), uint8(i))
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
		m.Mem.WriteU8(uint64(i), uint8(i))
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
		{Op: isa.OpIAdd, Kind: isa.KindScalar, Dst: isa.V(0), Src1: isa.R(0), Src2: isa.R(0)},         // dst not int
		{Op: isa.OpPAddB, Kind: isa.KindUSIMD, Dst: isa.R(0), Src1: isa.V(0), Src2: isa.V(1)},         // dst not vec
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
	mustExec(t, m, isa.Inst{Op: isa.OpVMovI2V, Kind: isa.KindUSIMD, Dst: isa.V(2), Src1: isa.R(1)})
	if m.Vec[2][0] != 0xabcd {
		t.Error("vmovi2v wrong")
	}
	m.Vec[3][5] = 777
	mustExec(t, m, isa.Inst{Op: isa.OpVMovV2I, Kind: isa.KindScalar, Dst: isa.R(2), Src1: isa.V(3), Imm: 5})
	if m.IntVal(isa.R(2)) != 777 {
		t.Error("vmovv2i wrong")
	}
}
