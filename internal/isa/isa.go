// Package isa defines the instruction set architecture used throughout the
// simulator: the scalar core ISA, the MMX-like μSIMD extension, the MOM
// 2-dimensional matrix extension, and the paper's 3D memory vectorization
// extension (3dvload / 3dvmov).
//
// The package is purely declarative: it defines registers, opcodes,
// instruction encodings and a disassembler. Semantics live in
// internal/emu; timing lives in internal/core.
package isa

import "fmt"

// Architectural geometry constants, following the MOM ISA technical report
// and the MICRO-35 paper (§4.1, Table 3).
const (
	// MOMElems is the number of 64-bit elements in a MOM vector register.
	MOMElems = 16
	// D3Elems is the number of elements in a 3D vector register.
	D3Elems = 16
	// D3ElemBytes is the width in bytes of one 3D register element
	// (16 x 64 bits = 128 bytes, one full L2 cache line).
	D3ElemBytes = 128
	// D3ElemWords is the width in 64-bit words of one 3D register element.
	D3ElemWords = D3ElemBytes / 8
	// PtrBits is the width of a 3D pointer register (byte offset within a
	// 3D register element).
	PtrBits = 7
)

// Logical register file sizes (Table 3 of the paper).
const (
	NumIntRegs    = 32 // scalar integer registers
	NumVecRegsMMX = 32 // MMX-like configuration: 32 logical 64-bit registers
	NumAccRegs    = 2  // packed accumulator registers
	Num3DRegs     = 2  // 3D vector registers (and their pointer registers)
)

// RegClass identifies which architectural register file a Reg names.
type RegClass uint8

const (
	// RCNone marks an absent operand.
	RCNone RegClass = iota
	// RCInt is the scalar integer register file.
	RCInt
	// RCVec is the multimedia register file: 64-bit registers in the
	// MMX-like configuration, 16x64-bit matrix registers under MOM.
	RCVec
	// RCAcc is the packed accumulator register file (192-bit).
	RCAcc
	// RC3D is the second-level 3D vector register file (16 x 128 bytes).
	RC3D
	// RCPtr is the 3D pointer register file (7-bit byte offsets).
	RCPtr
)

// String returns a short mnemonic for the register class.
func (c RegClass) String() string {
	switch c {
	case RCNone:
		return "none"
	case RCInt:
		return "int"
	case RCVec:
		return "vec"
	case RCAcc:
		return "acc"
	case RC3D:
		return "3d"
	case RCPtr:
		return "ptr"
	}
	return fmt.Sprintf("RegClass(%d)", uint8(c))
}

// Reg is a logical register identifier: a class plus an index within that
// class's register file. The zero Reg is the absent operand.
type Reg uint16

const regClassShift = 10

// MkReg builds a register identifier from a class and index.
func MkReg(c RegClass, idx int) Reg {
	return Reg(uint16(c)<<regClassShift | uint16(idx)&0x3ff)
}

// R returns the scalar integer register ri.
func R(i int) Reg { return MkReg(RCInt, i) }

// V returns multimedia register vi (an MMX register or a MOM matrix
// register depending on the configuration).
func V(i int) Reg { return MkReg(RCVec, i) }

// A returns packed accumulator register ai.
func A(i int) Reg { return MkReg(RCAcc, i) }

// D returns 3D vector register di.
func D(i int) Reg { return MkReg(RC3D, i) }

// P returns the 3D pointer register associated with 3D register di.
func P(i int) Reg { return MkReg(RCPtr, i) }

// Class reports the register file this register belongs to.
func (r Reg) Class() RegClass { return RegClass(r >> regClassShift) }

// Index reports the register's index within its register file.
func (r Reg) Index() int { return int(r & 0x3ff) }

// Valid reports whether r names an actual register (not the zero Reg).
func (r Reg) Valid() bool { return r.Class() != RCNone }

// String renders the register in assembly syntax.
func (r Reg) String() string {
	switch r.Class() {
	case RCNone:
		return "-"
	case RCInt:
		return fmt.Sprintf("r%d", r.Index())
	case RCVec:
		return fmt.Sprintf("v%d", r.Index())
	case RCAcc:
		return fmt.Sprintf("a%d", r.Index())
	case RC3D:
		return fmt.Sprintf("d%d", r.Index())
	case RCPtr:
		return fmt.Sprintf("p%d", r.Index())
	}
	return fmt.Sprintf("?%d", uint16(r))
}

// Kind partitions dynamic instructions by the pipeline resources they use.
type Kind uint8

const (
	// KindScalar is a scalar integer ALU operation.
	KindScalar Kind = iota
	// KindBranch is a conditional or unconditional control transfer.
	KindBranch
	// KindScalarMem is a scalar load or store (through the L1 cache).
	KindScalarMem
	// KindUSIMD is a 64-bit packed μSIMD ALU operation (MMX-like).
	KindUSIMD
	// KindUSIMDMem is a 64-bit μSIMD load or store (through the L1 cache).
	KindUSIMDMem
	// KindMOM is a MOM 2D vector ALU operation (VL elements).
	KindMOM
	// KindMOMMem is a MOM 2D vector load or store (bypasses L1, uses the
	// vector memory subsystem attached to L2).
	KindMOMMem
	// Kind3DLoad is the paper's 3D vector load (dvload): VL wide elements
	// into a 3D register, through the vector memory subsystem.
	Kind3DLoad
	// Kind3DMove is the paper's 3D vector move (3dvmov): a slice of a 3D
	// register into a MOM register; touches no cache.
	Kind3DMove
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindBranch:
		return "branch"
	case KindScalarMem:
		return "scalar-mem"
	case KindUSIMD:
		return "usimd"
	case KindUSIMDMem:
		return "usimd-mem"
	case KindMOM:
		return "mom"
	case KindMOMMem:
		return "mom-mem"
	case Kind3DLoad:
		return "3d-load"
	case Kind3DMove:
		return "3d-move"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether instructions of this kind access memory.
func (k Kind) IsMem() bool {
	switch k {
	case KindScalarMem, KindUSIMDMem, KindMOMMem, Kind3DLoad:
		return true
	}
	return false
}

// IsVectorMem reports whether instructions of this kind use the vector
// memory subsystem (bypassing L1).
func (k Kind) IsVectorMem() bool { return k == KindMOMMem || k == Kind3DLoad }

// Inst is one dynamic instruction: a static operation plus the dynamic
// facts (effective address, branch outcome, sequence number) recorded when
// the trace was generated. It is the unit consumed by the cycle simulator.
type Inst struct {
	Seq  uint64 // dynamic sequence number, 0-based
	Op   Op     // operation
	Kind Kind   // pipeline class

	Dst  Reg // destination register (zero for stores/branches)
	Src1 Reg // first source
	Src2 Reg // second source
	Ptr  Reg // 3D pointer register (3dvmov reads and writes it)

	Imm int64 // immediate operand

	// Vector fields.
	VL      int   // vector length in elements (MOM / 3D memory ops)
	Stride  int64 // vector stride in bytes between consecutive elements
	Width   int   // 3dvload: element width in 64-bit words (1..16)
	PtrStep int   // 3dvmov: signed pointer stride Ps in bytes
	Back    bool  // 3dvload: initialize pointer at the end of the register

	// Dynamic facts.
	Addr    uint64 // effective base address for memory operations
	IsStore bool   // memory direction
	Taken   bool   // branch outcome
}

// Elems reports how many elements a memory instruction touches: VL for
// MOM and 3D memory operations, 1 for scalar and μSIMD ones, 0 for an
// instruction that does not access memory. With ElemBytes and ElemAddr
// it is the one definition of an instruction's memory footprint.
func (in *Inst) Elems() int {
	switch in.Kind {
	case KindScalarMem, KindUSIMDMem:
		return 1
	case KindMOMMem, Kind3DLoad:
		return in.VL
	}
	return 0
}

// ElemBytes reports the width of one element in bytes: the access size
// a scalar operation carries in Imm, Width 64-bit words for a dvload,
// one 64-bit word otherwise.
func (in *Inst) ElemBytes() int {
	switch in.Kind {
	case KindScalarMem:
		return int(in.Imm)
	case Kind3DLoad:
		return in.Width * 8
	}
	return 8
}

// ElemAddr returns the address of element e when the instruction's base
// is addr (its effective address, or a translation of it).
func (in *Inst) ElemAddr(addr uint64, e int) uint64 {
	return addr + uint64(int64(e)*in.Stride)
}

// Bytes reports the total number of bytes this instruction transfers
// to or from memory (0 for non-memory instructions).
func (in *Inst) Bytes() int { return in.Elems() * in.ElemBytes() }
