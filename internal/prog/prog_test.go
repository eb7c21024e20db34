package prog

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mmem"
	"repro/internal/trace"
)

func newB() (*Builder, *trace.Trace, *emu.Machine) {
	m := emu.New(mmem.New())
	tr := &trace.Trace{}
	return New(m, tr), tr, m
}

func TestSequenceNumbers(t *testing.T) {
	b, tr, _ := newB()
	b.MovImm(isa.R(1), 1)
	b.MovImm(isa.R(2), 2)
	b.Mov(isa.R(3), isa.R(1))
	if b.seq != 3 || len(tr.Insts) != 3 {
		t.Fatalf("count = %d, trace = %d", b.seq, len(tr.Insts))
	}
	for i, in := range tr.Insts {
		if in.Seq != uint64(i) {
			t.Errorf("inst %d has seq %d", i, in.Seq)
		}
	}
}

func TestEffectiveAddresses(t *testing.T) {
	b, tr, m := newB()
	b.MovImm(isa.R(1), 0x1000)
	b.MovImm(isa.R(9), 42)
	b.Store(isa.R(1), 8, isa.R(9))
	b.LoadS(isa.R(2), isa.R(1), 8)
	if m.IntVal(isa.R(2)) != 42 {
		t.Fatal("store/load round trip failed")
	}
	st := tr.Insts[2]
	if st.Addr != 0x1008 || !st.IsStore || st.Kind != isa.KindScalarMem || st.Imm != 2 {
		t.Errorf("store inst: %+v", st)
	}
}

func TestBranchOutcome(t *testing.T) {
	b, tr, _ := newB()
	b.MovImm(isa.R(1), 0)
	if b.BrNZ(isa.R(1)) {
		t.Error("branch on zero must not be taken")
	}
	b.MovImm(isa.R(1), -5)
	if !b.BrNZ(isa.R(1)) {
		t.Error("branch on nonzero must be taken")
	}
	if !tr.Insts[1].Taken == false || tr.Insts[1].Kind != isa.KindBranch {
		t.Error("first branch must be recorded not-taken")
	}
	if tr.Insts[3].Taken != true {
		t.Error("second branch must be recorded taken")
	}
}

func TestMOMLoadTraceFields(t *testing.T) {
	b, tr, m := newB()
	for e := 0; e < 8; e++ {
		m.Mem.WriteU64(uint64(0x2000+e*176), uint64(e))
	}
	b.MovImm(isa.R(1), 0x2000)
	b.MOMLoad(isa.V(1), isa.R(1), 0, 176, 8, 8)
	in := tr.Insts[1]
	if in.Kind != isa.KindMOMMem || in.VL != 8 || in.Stride != 176 || in.Imm != 8 {
		t.Errorf("MOM load fields: %+v", in)
	}
	if m.Vec[1][7] != 7 {
		t.Error("MOM load execution failed")
	}
}

func TestDVLoadDVMovRoundTrip(t *testing.T) {
	b, tr, m := newB()
	// 8 rows at stride 64, 16 bytes each of recognizable content.
	for r := 0; r < 8; r++ {
		for i := 0; i < 16; i++ {
			m.Mem.Write(uint64(0x3000+r*64+i), []byte{uint8(r*16 + i)})
		}
	}
	b.MovImm(isa.R(1), 0x3000)
	b.DVLoad(isa.D(0), isa.R(1), 0, 64, 8, 2, false, 8)
	b.DVMov(isa.V(2), isa.D(0), 1, 8)
	if got := m.Vec[2][3]; got != 0x3736353433323130 {
		t.Errorf("slice elem 3 = %x", got)
	}
	ld, mv := tr.Insts[1], tr.Insts[2]
	if ld.Kind != isa.Kind3DLoad || ld.Width != 2 || ld.VL != 8 {
		t.Errorf("dvload fields: %+v", ld)
	}
	if mv.Kind != isa.Kind3DMove || mv.Ptr != isa.P(0) || mv.PtrStep != 1 {
		t.Errorf("3dvmov fields: %+v", mv)
	}
}

func TestAccumulatorHelpers(t *testing.T) {
	b, _, m := newB()
	b.AccClr(isa.A(0))
	for e := 0; e < 2; e++ {
		m.Vec[1][e] = 0x0a0a0a0a0a0a0a0a
		m.Vec[2][e] = 0x0505050505050505
	}
	b.VSadAcc(isa.A(0), isa.V(1), isa.V(2), 2)
	b.AccMov(isa.R(3), isa.A(0))
	if m.IntVal(isa.R(3)) != 2*8*5 {
		t.Errorf("SAD total = %d, want 80", m.IntVal(isa.R(3)))
	}
}

func TestBuilderPanicsOnMalformed(t *testing.T) {
	b, _, _ := newB()
	defer func() {
		if recover() == nil {
			t.Error("malformed instruction must panic")
		}
	}()
	b.MOMLoad(isa.V(1), isa.R(1), 0, 8, 99, 8) // VL out of range
}

func TestStatsSinkIntegration(t *testing.T) {
	m := emu.New(mmem.New())
	var rec trace.Recorder
	s, st := rec.Record(func(sink trace.Sink) {
		b := New(m, sink)
		b.MovImm(isa.R(1), 0x100)
		b.MOMLoad(isa.V(1), isa.R(1), 0, 8, 4, 8)
		b.DVLoad(isa.D(0), isa.R(1), 0, 16, 2, 2, false, 8)
		b.DVMov(isa.V(2), isa.D(0), 1, 2)
		b.DVMov(isa.V(3), isa.D(0), 1, 2)
	})
	if st.Total != 5 || s.Len() != 5 {
		t.Fatalf("recorded: stats %d, stream %d", st.Total, s.Len())
	}
	d1, d2, d3, mx, has3 := st.Dims()
	if !has3 {
		t.Fatal("stream has 3D instructions")
	}
	if d1 != 8 {
		t.Errorf("dim1 = %v", d1)
	}
	if d2 != 3 { // (4+2)/2
		t.Errorf("dim2 = %v", d2)
	}
	if d3 != 1.5 { // (1 + 2)/2
		t.Errorf("dim3 = %v", d3)
	}
	if mx != 2 {
		t.Errorf("dim3 max = %d", mx)
	}
}
