package trace

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestTraceAppends(t *testing.T) {
	tr := &Trace{}
	tr.Emit(isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar})
	tr.Emit(isa.Inst{Op: isa.OpIShl, Kind: isa.KindScalar})
	if len(tr.Insts) != 2 {
		t.Fatalf("len = %d", len(tr.Insts))
	}
}

func TestStatsKindsAndBytes(t *testing.T) {
	s := NewStats()
	s.Emit(isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar})
	s.Emit(isa.Inst{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Imm: 4})
	s.Emit(isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, VL: 8, Stride: 8, Imm: 8})
	s.Emit(isa.Inst{Op: isa.OpBr, Kind: isa.KindBranch, Taken: true})
	s.Emit(isa.Inst{Op: isa.OpBr, Kind: isa.KindBranch})
	if s.Total != 5 {
		t.Errorf("total = %d", s.Total)
	}
	if s.ByKind[isa.KindScalar] != 1 || s.ByKind[isa.KindMOMMem] != 1 {
		t.Error("kind counts wrong")
	}
	if s.MemBytes != 4+64 {
		t.Errorf("bytes = %d", s.MemBytes)
	}
	if s.Branches != 2 || s.Taken != 1 {
		t.Error("branch stats wrong")
	}
	if !strings.Contains(s.String(), "instructions: 5") {
		t.Error("summary missing total")
	}
}

func TestDimsNoVectorMemory(t *testing.T) {
	s := NewStats()
	s.Emit(isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar})
	d1, d2, d3, mx, has3 := s.Dims()
	if d1 != 0 || d2 != 0 || d3 != 0 || mx != 0 || has3 {
		t.Error("dims of scalar-only stream must be zero")
	}
}

func TestDimsThirdDimensionPerRegister(t *testing.T) {
	s := NewStats()
	// dvload into d0, consume 3 slices; dvload into d1, consume 1; a new
	// load to d0 then gets 2 more. Plain 2D loads count a third dim of 1.
	s.Emit(isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0), VL: 8, Width: 16, Imm: 8})
	for i := 0; i < 3; i++ {
		s.Emit(isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1), Src1: isa.D(0), VL: 8})
	}
	s.Emit(isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(1), VL: 8, Width: 16, Imm: 8})
	s.Emit(isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(2), Src1: isa.D(1), VL: 8})
	s.Emit(isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0), VL: 8, Width: 16, Imm: 8})
	s.Emit(isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(3), Src1: isa.D(0), VL: 8})
	s.Emit(isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(4), Src1: isa.D(0), VL: 8})
	s.Emit(isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, VL: 4, Stride: 8, Imm: 8})

	d1, d2, d3, mx, has3 := s.Dims()
	if !has3 {
		t.Fatal("has3 must be true")
	}
	if d1 != 8 {
		t.Errorf("dim1 = %v", d1)
	}
	if want := (8.0*3 + 4) / 4; d2 != want {
		t.Errorf("dim2 = %v, want %v", d2, want)
	}
	// slices: 3 + 1 + 2 = 6; plus the plain 2D load counts 1 => 7/4.
	if want := 7.0 / 4; d3 != want {
		t.Errorf("dim3 = %v, want %v", d3, want)
	}
	if mx != 3 {
		t.Errorf("dim3 max = %d", mx)
	}
	if got := s.SlicesPerLoad(); got != 2 {
		t.Errorf("slices per load = %v, want 2", got)
	}
}

func TestSlicesPerLoadEmpty(t *testing.T) {
	if NewStats().SlicesPerLoad() != 0 {
		t.Error("empty stats must report 0 slices per load")
	}
}
