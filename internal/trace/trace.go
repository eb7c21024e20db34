// Package trace defines the dynamic instruction stream produced by the
// kernels (via internal/prog) and consumed by the cycle simulator, plus
// stream-level statistics: instruction mix, memory volume, and the
// per-dimension vector lengths reported in Table 1 of the paper.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Sink receives dynamic instructions in program order.
type Sink interface {
	Emit(in isa.Inst)
}

// Trace is an in-memory dynamic instruction stream.
type Trace struct {
	Insts []isa.Inst
}

// Emit appends one instruction, implementing Sink.
func (t *Trace) Emit(in isa.Inst) { t.Insts = append(t.Insts, in) }

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// Multi fans one stream out to several sinks.
type Multi []Sink

// Emit forwards the instruction to every sink.
func (m Multi) Emit(in isa.Inst) {
	for _, s := range m {
		s.Emit(in)
	}
}

// Stats accumulates stream statistics. It implements Sink and can be
// attached alongside a Trace (or used alone, streaming, for very long
// runs).
type Stats struct {
	// Total is the dynamic instruction count.
	Total uint64
	// ByKind counts instructions per pipeline class.
	ByKind [isa.Kind3DMove + 1]uint64
	// ByOp counts instructions per opcode.
	ByOp [isa.NumOps]uint64
	// MemBytes is the total bytes moved by memory instructions.
	MemBytes uint64
	// Branches and Taken count control-flow behaviour.
	Branches, Taken uint64

	// Vector memory dimension statistics (Table 1). A "vector memory
	// instruction" is a MOM 2D memory operation or a 3D vector load.
	VecMemInsts uint64
	sumPack     uint64 // Σ subword elements per 64-bit word (dimension 1)
	sumVL       uint64 // Σ vector length (dimension 2)

	// D3MoveElems counts total elements transferred by 3dvmov
	// instructions (3D register file read activity, used by the power
	// model).
	D3MoveElems uint64

	// Third-dimension bookkeeping: for each dvload, the number of
	// 3dvmov slices consumed from it.
	d3Open   [isa.Num3DRegs]int // index into d3Slices, -1 if none open
	d3Slices []int
}

// NewStats returns an empty statistics collector.
func NewStats() *Stats {
	s := &Stats{}
	for i := range s.d3Open {
		s.d3Open[i] = -1
	}
	return s
}

// Emit accumulates one instruction, implementing Sink.
func (s *Stats) Emit(in isa.Inst) { s.add(&in) }

func (s *Stats) add(in *isa.Inst) {
	s.Total++
	s.ByKind[in.Kind]++
	s.ByOp[in.Op]++
	s.MemBytes += uint64(in.Bytes())
	if in.Kind == isa.KindBranch {
		s.Branches++
		if in.Taken {
			s.Taken++
		}
	}
	switch in.Kind {
	case isa.KindMOMMem, isa.Kind3DLoad:
		s.VecMemInsts++
		s.sumVL += uint64(in.VL)
		pack := in.Imm
		if pack <= 0 {
			pack = 1
		}
		s.sumPack += uint64(pack)
	}
	if in.Kind == isa.Kind3DLoad {
		r := in.Dst.Index()
		s.d3Slices = append(s.d3Slices, 0)
		s.d3Open[r] = len(s.d3Slices) - 1
	}
	if in.Kind == isa.Kind3DMove {
		s.D3MoveElems += uint64(in.VL)
		if i := s.d3Open[in.Src1.Index()]; i >= 0 {
			s.d3Slices[i]++
		}
	}
}

// Dims reports the average vector length along each of the three
// dimensions of the vector memory instructions, plus the maximum observed
// third-dimension length, in the style of Table 1:
//
//   - dim1: subword elements per 64-bit word (μSIMD packing),
//   - dim2: MOM vector length,
//   - dim3: 2D streams served per memory instruction (plain 2D operations
//     count 1; a dvload counts the 3dvmov slices consumed from it).
//
// has3 reports whether the stream contains any 3D memory instructions.
func (s *Stats) Dims() (dim1, dim2, dim3 float64, dim3Max int, has3 bool) {
	if s.VecMemInsts == 0 {
		return 0, 0, 0, 0, false
	}
	dim1 = float64(s.sumPack) / float64(s.VecMemInsts)
	dim2 = float64(s.sumVL) / float64(s.VecMemInsts)
	n3 := uint64(len(s.d3Slices))
	slices := uint64(0)
	for _, c := range s.d3Slices {
		slices += uint64(c)
		if c > dim3Max {
			dim3Max = c
		}
	}
	// Plain 2D memory instructions contribute a third dimension of 1.
	dim3 = float64(slices+(s.VecMemInsts-n3)) / float64(s.VecMemInsts)
	return dim1, dim2, dim3, dim3Max, n3 > 0
}

// SlicesPerLoad returns the average number of 3dvmov slices consumed per
// dvload (0 if the stream has no 3D loads).
func (s *Stats) SlicesPerLoad() float64 {
	if len(s.d3Slices) == 0 {
		return 0
	}
	var sum int
	for _, c := range s.d3Slices {
		sum += c
	}
	return float64(sum) / float64(len(s.d3Slices))
}

// String renders a compact human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instructions: %d\n", s.Total)
	for k := isa.KindScalar; k <= isa.Kind3DMove; k++ {
		if s.ByKind[k] > 0 {
			fmt.Fprintf(&b, "  %-11s %10d (%.1f%%)\n", k, s.ByKind[k],
				100*float64(s.ByKind[k])/float64(s.Total))
		}
	}
	fmt.Fprintf(&b, "memory bytes: %d\n", s.MemBytes)
	if s.Branches > 0 {
		fmt.Fprintf(&b, "branches: %d (%.1f%% taken)\n", s.Branches,
			100*float64(s.Taken)/float64(s.Branches))
	}
	if s.VecMemInsts > 0 {
		d1, d2, d3, mx, has3 := s.Dims()
		fmt.Fprintf(&b, "vector memory dims: %.1f / %.1f", d1, d2)
		if has3 {
			fmt.Fprintf(&b, " / %.1f (max %d)", d3, mx)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
