package isa

import "fmt"

// Op enumerates the operations the kernels emit: scalar, μSIMD, MOM and
// 3D. An opcode lands with the kernel that emits it
// (internal/kernels TestEveryOpcodeIsEmitted). Packed operations
// (OpPAddW ... OpPShufW) are shared between the μSIMD and MOM
// instruction kinds: under KindUSIMD they operate on one 64-bit
// register, under KindMOM they are replicated over VL register elements
// (the second dimension of vectorization).
type Op uint8

const (
	// Scalar integer operations.
	OpIMovImm Op = iota // dst = imm
	OpIMov              // dst = src1
	OpIShl              // dst = src1 << imm
	OpISra              // dst = src1 >> imm (arithmetic)
	OpISlt              // dst = src1 < src2 ? 1 : 0 (signed)

	// Control flow. Branches carry their dynamic outcome in Inst.Taken.
	OpBr // conditional branch on src1 != 0

	// Scalar memory. The access size in bytes travels in Inst.Imm.
	OpLoadS // dst = mem[Addr], sign-extended
	OpStore // mem[Addr] = src2

	// Packed 64-bit operations (μSIMD under KindUSIMD, per-element 2D
	// vector under KindMOM).
	OpPAddW   // 4x16-bit wrapping add
	OpPAddD   // 2x32-bit wrapping add
	OpPSubW   // 4x16-bit wrapping subtract
	OpPMullW  // 4x16-bit multiply, low halves
	OpPMulhW  // 4x16-bit signed multiply, high halves
	OpPMAddWD // 4x16 -> 2x32 multiply-add pairs
	OpPAvgB   // 8x8-bit unsigned rounding average
	OpPSadBW  // sum of absolute differences of 8 bytes -> 64-bit scalar sum
	OpPXor
	OpPSraW     // 4x16-bit arithmetic right shift by Imm
	OpPSraD     // 2x32-bit arithmetic right shift by Imm
	OpPSrlQ     // 64-bit logical right shift by Imm
	OpPackUSWB  // pack 4+4 signed words to 8 unsigned saturated bytes
	OpPackSSDW  // pack 2+2 signed dwords to 4 signed saturated words
	OpPUnpckLBW // interleave low 4 bytes of src1/src2 into 4 words' bytes
	OpPUnpckHBW
	OpPUnpckLWD
	OpPUnpckHWD
	OpPUnpckLDQ // interleave low dwords of src1/src2
	OpPUnpckHDQ // interleave high dwords of src1/src2
	OpPShufW    // shuffle 4 words by immediate control

	// Multimedia register moves.
	OpVMovV2I // scalar dst = vec element word (Imm selects element)
	OpVSplatW // broadcast low 16 bits of scalar src1 across register/elements

	// Multimedia memory. Under KindUSIMDMem a 64-bit access; under
	// KindMOMMem a 2D access of VL elements with Stride bytes between them.
	OpVLoad
	OpVStore

	// MOM packed-accumulator operations (192-bit accumulator RF).
	OpVSadAcc // acc += sum over elements of SAD(src1[e], src2[e])
	OpVMacAcc // acc += sum over elements of dot16(src1[e], src2[e])
	OpAccClr  // acc = 0
	OpAccMov  // scalar dst = saturated/truncated accumulator value

	// 3D memory vectorization extension (the paper's new instructions).
	Op3DVLoad // dvload DRi <- [Addr], stride, W words/elem, flag b
	Op3DVMov  // 3dvmov VRi <- DRj at ptr; ptr += Ps

	opCount
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// ExecClass groups opcodes by the functional unit pipeline that executes
// them; it determines execution latency.
type ExecClass uint8

const (
	// ECSimple executes in one cycle (ALU, logic, moves).
	ECSimple ExecClass = iota
	// ECPMul is the packed multiplier pipeline (pmull/pmulh/pmadd).
	ECPMul
	// ECPSad is the packed sum-of-absolute-differences pipeline.
	ECPSad
	// ECMem is a memory operation; latency comes from the memory system.
	ECMem
	// ECMove3D is the 3D register file read pipeline (3 cycles, §5.3).
	ECMove3D
)

// opInfo is static metadata for one opcode.
type opInfo struct {
	name  string
	class ExecClass
	imm   bool // Imm is an operand (HasImm)
}

var opTable = [opCount]opInfo{
	OpIMovImm: {"movi", ECSimple, true},
	OpIMov:    {"mov", ECSimple, false},
	OpIShl:    {"shl", ECSimple, true},
	OpISra:    {"sra", ECSimple, true},
	OpISlt:    {"slt", ECSimple, false},
	OpBr:      {"br", ECSimple, false},
	OpLoadS:   {"lds", ECMem, false},
	OpStore:   {"st", ECMem, false},

	OpPAddW:     {"paddw", ECSimple, false},
	OpPAddD:     {"paddd", ECSimple, false},
	OpPSubW:     {"psubw", ECSimple, false},
	OpPMullW:    {"pmullw", ECPMul, false},
	OpPMulhW:    {"pmulhw", ECPMul, false},
	OpPMAddWD:   {"pmaddwd", ECPMul, false},
	OpPAvgB:     {"pavgb", ECSimple, false},
	OpPSadBW:    {"psadbw", ECPSad, false},
	OpPXor:      {"pxor", ECSimple, false},
	OpPSraW:     {"psraw", ECSimple, true},
	OpPSraD:     {"psrad", ECSimple, true},
	OpPSrlQ:     {"psrlq", ECSimple, true},
	OpPackUSWB:  {"packuswb", ECSimple, false},
	OpPackSSDW:  {"packssdw", ECSimple, false},
	OpPUnpckLBW: {"punpcklbw", ECSimple, false},
	OpPUnpckHBW: {"punpckhbw", ECSimple, false},
	OpPUnpckLWD: {"punpcklwd", ECSimple, false},
	OpPUnpckHWD: {"punpckhwd", ECSimple, false},
	OpPUnpckLDQ: {"punpckldq", ECSimple, false},
	OpPUnpckHDQ: {"punpckhdq", ECSimple, false},
	OpPShufW:    {"pshufw", ECSimple, true},

	OpVMovV2I: {"vmovv2i", ECSimple, true},
	OpVSplatW: {"vsplatw", ECSimple, false},

	OpVLoad:  {"vload", ECMem, false},
	OpVStore: {"vstore", ECMem, false},

	OpVSadAcc: {"vsadacc", ECPSad, false},
	OpVMacAcc: {"vmacacc", ECPMul, false},
	OpAccClr:  {"accclr", ECSimple, false},
	OpAccMov:  {"accmov", ECSimple, false},

	Op3DVLoad: {"dvload", ECMem, false},
	Op3DVMov:  {"3dvmov", ECMove3D, false},
}

// Name returns the opcode mnemonic.
func (o Op) Name() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Class returns the opcode's functional-unit class.
func (o Op) Class() ExecClass {
	if int(o) < len(opTable) {
		return opTable[o].class
	}
	return ECSimple
}

// HasImm reports whether the opcode's Imm is an operand: the
// disassembly prints it, and a packed operation reads it in place of a
// second source.
func (o Op) HasImm() bool { return int(o) < len(opTable) && opTable[o].imm }

// Latency returns the execution latency in cycles for non-memory classes.
// Memory latencies are produced by the memory subsystem; ECMove3D latency
// is the 3-cycle 3D register file access of §5.3.
func (c ExecClass) Latency() int {
	switch c {
	case ECSimple:
		return 1
	case ECPMul, ECPSad:
		return 3
	case ECMove3D:
		return 3
	case ECMem:
		return 0 // resolved by the memory model
	}
	return 1
}

// IsPacked reports whether the opcode is a packed (μSIMD-style) ALU
// operation shareable between the MMX and MOM instruction kinds.
func (o Op) IsPacked() bool {
	return o >= OpPAddW && o <= OpPShufW
}
