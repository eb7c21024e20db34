// Package prog provides the trace builder: a typed assembler whose every
// emitted instruction is immediately executed on the functional emulator
// and appended to the dynamic trace.
//
// This replaces the paper's ATOM-based methodology (§5.1): the authors
// rewrote Mediabench kernels with MOM intrinsics and traced instrumented
// executions; here the kernels are written directly against this builder,
// so data-dependent control flow (e.g. the running-minimum update in
// full-search motion estimation) follows exactly the path a native
// execution would take, and the resulting stream carries real addresses
// and real register dependences.
//
// Builder methods panic on malformed instructions (wrong register class,
// out-of-range vector length): these are assembly-time programming errors
// in a kernel, never data-dependent conditions.
package prog

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Builder assembles, executes and records one dynamic instruction stream.
type Builder struct {
	m    *emu.Machine
	sink trace.Sink
	seq  uint64
}

// New returns a builder over machine m that sends the stream to sink.
func New(m *emu.Machine, sink trace.Sink) *Builder {
	return &Builder{m: m, sink: sink}
}

func (b *Builder) emit(in isa.Inst) {
	in.Seq = b.seq
	if err := b.m.Exec(&in); err != nil {
		panic(fmt.Sprintf("prog: instruction %d (%s): %v", in.Seq, in.String(), err))
	}
	b.seq++
	if b.sink != nil {
		b.sink.Emit(in)
	}
}

// addr computes the effective address base+off from the emulated value of
// the base register.
func (b *Builder) addr(base isa.Reg, off int64) uint64 {
	return uint64(b.m.IntVal(base) + off)
}

// Scalar operations.

// MovImm sets dst = imm.
func (b *Builder) MovImm(dst isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpIMovImm, Kind: isa.KindScalar, Dst: dst, Imm: imm})
}

// Mov copies src to dst.
func (b *Builder) Mov(dst, src isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpIMov, Kind: isa.KindScalar, Dst: dst, Src1: src})
}

// Shl emits dst = s1 << imm.
func (b *Builder) Shl(dst, s1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpIShl, Kind: isa.KindScalar, Dst: dst, Src1: s1, Imm: imm})
}

// Sra emits dst = s1 >> imm (arithmetic).
func (b *Builder) Sra(dst, s1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpISra, Kind: isa.KindScalar, Dst: dst, Src1: s1, Imm: imm})
}

// Slt emits dst = (s1 < s2).
func (b *Builder) Slt(dst, s1, s2 isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpISlt, Kind: isa.KindScalar, Dst: dst, Src1: s1, Src2: s2})
}

// Control flow.

// BrNZ emits a conditional branch on cond != 0 and returns the outcome so
// the kernel's Go control flow can follow the same path.
func (b *Builder) BrNZ(cond isa.Reg) bool {
	taken := b.m.IntVal(cond) != 0
	b.emit(isa.Inst{Op: isa.OpBr, Kind: isa.KindBranch, Src1: cond, Taken: taken})
	return taken
}

// Scalar memory. size is the access width in bytes (1, 2, 4, 8).

// LoadS emits a sign-extending load of size bytes from base+off.
func (b *Builder) LoadS(dst, base isa.Reg, off int64, size int) {
	b.emit(isa.Inst{Op: isa.OpLoadS, Kind: isa.KindScalarMem, Dst: dst, Src1: base,
		Imm: int64(size), Addr: b.addr(base, off)})
}

// Store emits a store of the low size bytes of src to base+off.
func (b *Builder) Store(base isa.Reg, off int64, src isa.Reg, size int) {
	b.emit(isa.Inst{Op: isa.OpStore, Kind: isa.KindScalarMem, Src1: base, Src2: src,
		Imm: int64(size), Addr: b.addr(base, off), IsStore: true})
}

// μSIMD (MMX-like) operations.

// U emits a two-source packed μSIMD operation.
func (b *Builder) U(op isa.Op, dst, s1, s2 isa.Reg) {
	b.emit(isa.Inst{Op: op, Kind: isa.KindUSIMD, Dst: dst, Src1: s1, Src2: s2})
}

// UImm emits a packed μSIMD operation with an immediate (shifts,
// shuffles).
func (b *Builder) UImm(op isa.Op, dst, s1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: op, Kind: isa.KindUSIMD, Dst: dst, Src1: s1, Imm: imm})
}

// MovV2I moves element elem of vector register src to a scalar register.
func (b *Builder) MovV2I(dst, src isa.Reg, elem int) {
	b.emit(isa.Inst{Op: isa.OpVMovV2I, Kind: isa.KindScalar, Dst: dst, Src1: src, Imm: int64(elem)})
}

// SplatW broadcasts the low 16 bits of scalar src across a μSIMD register.
func (b *Builder) SplatW(dst, src isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpVSplatW, Kind: isa.KindUSIMD, Dst: dst, Src1: src})
}

// MMXLoad emits a 64-bit μSIMD load from base+off. pack is the subword
// packing (8 for byte data, 4 for 16-bit data) recorded for Table 1.
func (b *Builder) MMXLoad(dst, base isa.Reg, off int64, pack int) {
	b.emit(isa.Inst{Op: isa.OpVLoad, Kind: isa.KindUSIMDMem, Dst: dst, Src1: base,
		Imm: int64(pack), Addr: b.addr(base, off)})
}

// MMXStore emits a 64-bit μSIMD store of src to base+off.
func (b *Builder) MMXStore(base isa.Reg, off int64, src isa.Reg, pack int) {
	b.emit(isa.Inst{Op: isa.OpVStore, Kind: isa.KindUSIMDMem, Src1: base, Src2: src,
		Imm: int64(pack), Addr: b.addr(base, off), IsStore: true})
}

// MOM 2D operations.

// M emits a two-source MOM vector operation over vl elements.
func (b *Builder) M(op isa.Op, dst, s1, s2 isa.Reg, vl int) {
	b.emit(isa.Inst{Op: op, Kind: isa.KindMOM, Dst: dst, Src1: s1, Src2: s2, VL: vl})
}

// MImm emits a MOM vector operation with an immediate over vl elements.
func (b *Builder) MImm(op isa.Op, dst, s1 isa.Reg, imm int64, vl int) {
	b.emit(isa.Inst{Op: op, Kind: isa.KindMOM, Dst: dst, Src1: s1, Imm: imm, VL: vl})
}

// MSplatW broadcasts the low 16 bits of scalar src across vl elements of a
// MOM register.
func (b *Builder) MSplatW(dst, src isa.Reg, vl int) {
	b.emit(isa.Inst{Op: isa.OpVSplatW, Kind: isa.KindMOM, Dst: dst, Src1: src, VL: vl})
}

// MOMLoad emits a MOM 2D vector load: vl 64-bit elements starting at
// base+off with stride bytes between elements. pack is the subword packing
// recorded for Table 1.
func (b *Builder) MOMLoad(dst, base isa.Reg, off, stride int64, vl, pack int) {
	b.emit(isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: dst, Src1: base,
		VL: vl, Stride: stride, Imm: int64(pack), Addr: b.addr(base, off)})
}

// MOMStore emits a MOM 2D vector store of vl elements of src.
func (b *Builder) MOMStore(base isa.Reg, off, stride int64, src isa.Reg, vl, pack int) {
	b.emit(isa.Inst{Op: isa.OpVStore, Kind: isa.KindMOMMem, Src1: base, Src2: src,
		VL: vl, Stride: stride, Imm: int64(pack), Addr: b.addr(base, off), IsStore: true})
}

// Packed accumulator reductions.

// VSadAcc emits acc += Σ_e SAD(s1[e], s2[e]) over vl elements.
func (b *Builder) VSadAcc(acc, s1, s2 isa.Reg, vl int) {
	b.emit(isa.Inst{Op: isa.OpVSadAcc, Kind: isa.KindMOM, Dst: acc, Src1: s1, Src2: s2, VL: vl})
}

// VMacAcc emits acc += Σ_e dot16(s1[e], s2[e]) over vl elements.
func (b *Builder) VMacAcc(acc, s1, s2 isa.Reg, vl int) {
	b.emit(isa.Inst{Op: isa.OpVMacAcc, Kind: isa.KindMOM, Dst: acc, Src1: s1, Src2: s2, VL: vl})
}

// AccClr clears an accumulator register.
func (b *Builder) AccClr(acc isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpAccClr, Kind: isa.KindScalar, Dst: acc})
}

// AccMov reads an accumulator into a scalar register.
func (b *Builder) AccMov(dst, acc isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpAccMov, Kind: isa.KindScalar, Dst: dst, Src1: acc})
}

// 3D memory vectorization.

// DVLoad emits the paper's dvload: vl elements of widthWords 64-bit words
// each, from base+off with stride bytes between elements, into 3D register
// d3. back initializes the element pointer at the last loaded sub-block
// instead of the first. pack is the subword packing recorded for Table 1.
func (b *Builder) DVLoad(d3, base isa.Reg, off, stride int64, vl, widthWords int, back bool, pack int) {
	b.emit(isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: d3, Src1: base,
		VL: vl, Stride: stride, Width: widthWords, Back: back, Imm: int64(pack),
		Addr: b.addr(base, off)})
}

// DVMov emits the paper's 3dvmov: for each of vl elements, the 64-bit
// sub-block at the current pointer offset of d3 moves into dst; the
// pointer then advances by ptrStep bytes.
func (b *Builder) DVMov(dst, d3 isa.Reg, ptrStep, vl int) {
	b.emit(isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: dst, Src1: d3,
		Ptr: isa.P(d3.Index()), PtrStep: ptrStep, VL: vl})
}
