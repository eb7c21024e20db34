package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegEncodingRoundTrip(t *testing.T) {
	cases := []struct {
		r     Reg
		class RegClass
		idx   int
		str   string
	}{
		{R(0), RCInt, 0, "r0"},
		{R(31), RCInt, 31, "r31"},
		{V(5), RCVec, 5, "v5"},
		{A(1), RCAcc, 1, "a1"},
		{D(0), RC3D, 0, "d0"},
		{P(1), RCPtr, 1, "p1"},
	}
	for _, c := range cases {
		if c.r.Class() != c.class {
			t.Errorf("%v: class = %v, want %v", c.r, c.r.Class(), c.class)
		}
		if c.r.Index() != c.idx {
			t.Errorf("%v: index = %d, want %d", c.r, c.r.Index(), c.idx)
		}
		if c.r.String() != c.str {
			t.Errorf("String = %q, want %q", c.r.String(), c.str)
		}
		if !c.r.Valid() {
			t.Errorf("%v: should be valid", c.r)
		}
	}
	var none Reg
	if none.Valid() {
		t.Error("the zero Reg must be invalid")
	}
	if none.String() != "-" {
		t.Errorf("the zero Reg's String() = %q", none.String())
	}
}

func TestRegEncodingProperty(t *testing.T) {
	f := func(class uint8, idx uint16) bool {
		c := RegClass(class%5 + 1)
		i := int(idx % 1024)
		r := MkReg(c, i)
		return r.Class() == c && r.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindPredicates(t *testing.T) {
	memKinds := map[Kind]bool{
		KindScalar: false, KindBranch: false, KindScalarMem: true,
		KindUSIMD: false, KindUSIMDMem: true, KindMOM: false,
		KindMOMMem: true, Kind3DLoad: true, Kind3DMove: false,
	}
	for k, want := range memKinds {
		if k.IsMem() != want {
			t.Errorf("%v.IsMem() = %v, want %v", k, k.IsMem(), want)
		}
	}
	if !KindMOMMem.IsVectorMem() || !Kind3DLoad.IsVectorMem() {
		t.Error("MOM memory and 3D loads must be vector memory")
	}
	if KindScalarMem.IsVectorMem() || KindUSIMDMem.IsVectorMem() {
		t.Error("scalar/μSIMD memory must not be vector memory")
	}
}

func TestElemAddrsMOM(t *testing.T) {
	in := &Inst{
		Op: OpVLoad, Kind: KindMOMMem,
		Addr: 0x1000, VL: 4, Stride: 176,
	}
	got := in.ElemAddrs(nil)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for e, acc := range got {
		want := uint64(0x1000 + e*176)
		if acc.Addr != want || acc.Size != 8 {
			t.Errorf("elem %d = {%#x,%d}, want {%#x,8}", e, acc.Addr, acc.Size, want)
		}
	}
	if in.Bytes() != 32 {
		t.Errorf("Bytes = %d, want 32", in.Bytes())
	}
}

func TestElemAddrs3D(t *testing.T) {
	in := &Inst{
		Op: Op3DVLoad, Kind: Kind3DLoad,
		Addr: 0x2000, VL: 8, Stride: 176, Width: 16,
	}
	got := in.ElemAddrs(nil)
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	if got[3].Addr != 0x2000+3*176 || got[3].Size != 128 {
		t.Errorf("elem 3 = %+v", got[3])
	}
	if in.Bytes() != 8*128 {
		t.Errorf("Bytes = %d, want %d", in.Bytes(), 8*128)
	}
}

func TestElemAddrsNegativeStride(t *testing.T) {
	in := &Inst{Op: OpVLoad, Kind: KindMOMMem, Addr: 0x1000, VL: 2, Stride: -8}
	got := in.ElemAddrs(nil)
	if got[1].Addr != 0xff8 {
		t.Errorf("elem 1 addr = %#x, want 0xff8", got[1].Addr)
	}
}

func TestElemAddrsScalar(t *testing.T) {
	in := &Inst{Op: OpLoad, Kind: KindScalarMem, Addr: 0x42, Imm: 4}
	got := in.ElemAddrs(nil)
	if len(got) != 1 || got[0].Size != 4 || got[0].Addr != 0x42 {
		t.Errorf("got %+v", got)
	}
	if in.Bytes() != 4 {
		t.Errorf("Bytes = %d, want 4", in.Bytes())
	}
}

func TestOpNamesDistinct(t *testing.T) {
	seen := map[string]Op{}
	for o := Op(0); o < Op(NumOps); o++ {
		n := o.Name()
		if n == "" {
			t.Errorf("op %d has empty name", o)
		}
		if strings.HasPrefix(n, "op") && n != "op" {
			// default formatting indicates a missing table entry
			t.Errorf("op %d missing from opTable (name %q)", o, n)
		}
		if prev, dup := seen[n]; dup {
			t.Errorf("duplicate mnemonic %q for ops %d and %d", n, prev, o)
		}
		seen[n] = o
	}
}

func TestLatencies(t *testing.T) {
	if ECSimple.Latency() != 1 {
		t.Error("simple ops must be single cycle")
	}
	if ECPMul.Latency() != 3 || ECPSad.Latency() != 3 || ECIMul.Latency() != 3 {
		t.Error("multiply/SAD pipelines must be 3 cycles")
	}
	if ECMove3D.Latency() != 3 {
		t.Error("3D register file reads are 3 cycles (paper §5.3)")
	}
	if ECMem.Latency() != 0 {
		t.Error("memory latency must be delegated to the memory model")
	}
}

func TestIsPacked(t *testing.T) {
	packed := []Op{OpPAddB, OpPSadBW, OpPShufW, OpPackUSWB, OpPSrlQ}
	for _, o := range packed {
		if !o.IsPacked() {
			t.Errorf("%v should be packed", o)
		}
	}
	notPacked := []Op{OpIAdd, OpVLoad, Op3DVLoad, Op3DVMov, OpVSadAcc, OpBr}
	for _, o := range notPacked {
		if o.IsPacked() {
			t.Errorf("%v should not be packed", o)
		}
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpIAdd, Kind: KindScalar, Dst: R(1), Src1: R(2), Src2: R(3)}, "add      r1, r2, r3"},
		{Inst{Op: OpVLoad, Kind: KindMOMMem, Dst: V(2), Addr: 0x100, VL: 8, Stride: 64},
			"mom.vload v2 [0x100] vl=8 vs=64"},
		{Inst{Op: Op3DVLoad, Kind: Kind3DLoad, Dst: D(0), Addr: 0x200, VL: 8, Stride: 176, Width: 16},
			"dvload   d0 [0x200] vl=8 vs=176 w=16 b=false"},
		{Inst{Op: Op3DVMov, Kind: Kind3DMove, Dst: V(1), Src1: D(0), Ptr: P(0), PtrStep: 1, VL: 8},
			"3dvmov   v1, d0 p0 ps=1 vl=8"},
		{Inst{Op: OpBr, Kind: KindBranch, Src1: R(4), Taken: true}, "br       r4 taken"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm:\n got %q\nwant %q", got, c.want)
		}
	}
}

func TestInstStringAllKindsNonEmpty(t *testing.T) {
	for k := KindScalar; k <= Kind3DMove; k++ {
		in := Inst{Op: OpNop, Kind: k}
		if in.String() == "" {
			t.Errorf("kind %v: empty disassembly", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d: empty name", k)
		}
	}
}
