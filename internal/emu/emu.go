// Package emu implements the functional (architectural) emulator for the
// combined scalar + μSIMD + MOM + 3D instruction set defined in
// internal/isa. It executes dynamic instructions against an architectural
// state and a byte-addressable memory image, with bit-exact packed
// semantics provided by internal/usimd.
//
// The emulator plays the role the ATOM-based emulation libraries played in
// the paper's methodology (§5.1): it gives the hand-vectorized kernels
// their semantics, so the traces fed to the cycle simulator correspond to
// a real execution whose outputs can be checked against scalar references.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mmem"
	"repro/internal/usimd"
)

// Machine is the architectural state of the emulated processor.
type Machine struct {
	// Mem is the architectural memory image.
	Mem *mmem.Memory
	// Int is the scalar integer register file.
	Int [isa.NumIntRegs]uint64
	// Vec is the multimedia register file. MMX-style instructions use
	// element 0 of a register only; MOM instructions use up to MOMElems.
	Vec [isa.NumVecRegsMMX][isa.MOMElems]uint64
	// Acc is the packed accumulator register file (192-bit accumulators;
	// the value ranges exercised here fit comfortably in 64 bits).
	Acc [isa.NumAccRegs]int64
	// D3 is the 3D vector register file: per register, D3Elems elements
	// of D3ElemWords 64-bit words each.
	D3 [isa.Num3DRegs][isa.D3Elems][isa.D3ElemWords]uint64
	// Ptr is the 3D pointer register file: byte offsets within a 3D
	// register element, wrapped to PtrBits bits.
	Ptr [isa.Num3DRegs]int
}

// New returns a machine with zeroed registers over the given memory image.
func New(mem *mmem.Memory) *Machine {
	if mem == nil {
		mem = mmem.New()
	}
	return &Machine{Mem: mem}
}

const ptrMask = 1<<isa.PtrBits - 1

// IntVal returns the value of a scalar integer register, interpreted as a
// signed 64-bit integer.
func (m *Machine) IntVal(r isa.Reg) int64 { return int64(m.Int[r.Index()]) }

// Exec executes one dynamic instruction, updating the architectural state.
// It returns an error for malformed instructions (wrong register class,
// out-of-range vector length); such errors indicate kernel bugs, not data
// conditions.
func (m *Machine) Exec(in *isa.Inst) error {
	switch in.Kind {
	case isa.KindScalar, isa.KindBranch:
		return m.execScalar(in)
	case isa.KindScalarMem:
		return m.execScalarMem(in)
	case isa.KindUSIMD:
		return m.execPacked(in, 1)
	case isa.KindMOM:
		return m.execMOM(in)
	case isa.KindUSIMDMem:
		return m.execUSIMDMem(in)
	case isa.KindMOMMem:
		return m.execMOMMem(in)
	case isa.Kind3DLoad:
		return m.exec3DLoad(in)
	case isa.Kind3DMove:
		return m.exec3DMove(in)
	}
	return fmt.Errorf("emu: unknown kind %v", in.Kind)
}

func (m *Machine) execScalar(in *isa.Inst) error {
	a := int64(m.Int[in.Src1.Index()])
	b := int64(m.Int[in.Src2.Index()])
	var r int64
	switch in.Op {
	case isa.OpNop, isa.OpBr, isa.OpJump:
		return nil // control flow outcome is recorded in the trace
	case isa.OpIMovImm:
		r = in.Imm
	case isa.OpIMov:
		r = a
	case isa.OpIAdd:
		r = a + b
	case isa.OpIAddImm:
		r = a + in.Imm
	case isa.OpISub:
		r = a - b
	case isa.OpIMul:
		r = a * b
	case isa.OpIAnd:
		r = a & b
	case isa.OpIOr:
		r = a | b
	case isa.OpIXor:
		r = a ^ b
	case isa.OpIShl:
		r = int64(uint64(a) << uint(in.Imm&63))
	case isa.OpIShr:
		r = int64(uint64(a) >> uint(in.Imm&63))
	case isa.OpISra:
		r = a >> uint(in.Imm&63)
	case isa.OpISltI:
		if a < in.Imm {
			r = 1
		}
	case isa.OpISlt:
		if a < b {
			r = 1
		}
	case isa.OpIMin:
		r = a
		if b < a {
			r = b
		}
	case isa.OpIMax:
		r = a
		if b > a {
			r = b
		}
	case isa.OpAccMov:
		if in.Src1.Class() != isa.RCAcc {
			return fmt.Errorf("emu: accmov source %v is not an accumulator", in.Src1)
		}
		r = m.Acc[in.Src1.Index()]
	case isa.OpAccClr:
		if in.Dst.Class() != isa.RCAcc {
			return fmt.Errorf("emu: accclr destination %v is not an accumulator", in.Dst)
		}
		m.Acc[in.Dst.Index()] = 0
		return nil
	case isa.OpVMovV2I:
		if in.Src1.Class() != isa.RCVec {
			return fmt.Errorf("emu: vmovv2i source %v is not a vector register", in.Src1)
		}
		e := int(in.Imm)
		if e < 0 || e >= isa.MOMElems {
			return fmt.Errorf("emu: vmovv2i element %d out of range", e)
		}
		r = int64(m.Vec[in.Src1.Index()][e])
	default:
		return fmt.Errorf("emu: op %s is not scalar", in.Op.Name())
	}
	if in.Dst.Class() != isa.RCInt {
		return fmt.Errorf("emu: scalar destination %v is not an integer register", in.Dst)
	}
	m.Int[in.Dst.Index()] = uint64(r)
	return nil
}

func (m *Machine) execScalarMem(in *isa.Inst) error {
	size := int(in.Imm)
	switch in.Op {
	case isa.OpLoad, isa.OpLoadS:
		var v uint64
		switch size {
		case 1:
			v = uint64(m.Mem.ReadU8(in.Addr))
			if in.Op == isa.OpLoadS {
				v = uint64(int64(int8(v)))
			}
		case 2:
			v = uint64(m.Mem.ReadU16(in.Addr))
			if in.Op == isa.OpLoadS {
				v = uint64(int64(int16(v)))
			}
		case 4:
			v = uint64(m.Mem.ReadU32(in.Addr))
			if in.Op == isa.OpLoadS {
				v = uint64(int64(int32(v)))
			}
		case 8:
			v = m.Mem.ReadU64(in.Addr)
		default:
			return fmt.Errorf("emu: scalar load size %d", size)
		}
		m.Int[in.Dst.Index()] = v
		return nil
	case isa.OpStore:
		v := m.Int[in.Src2.Index()]
		switch size {
		case 1:
			m.Mem.WriteU8(in.Addr, uint8(v))
		case 2:
			m.Mem.WriteU16(in.Addr, uint16(v))
		case 4:
			m.Mem.WriteU32(in.Addr, uint32(v))
		case 8:
			m.Mem.WriteU64(in.Addr, v)
		default:
			return fmt.Errorf("emu: scalar store size %d", size)
		}
		return nil
	}
	return fmt.Errorf("emu: op %s is not scalar memory", in.Op.Name())
}

// packedUnary lists packed opcodes that take an immediate instead of a
// second register source.
func packedImmOperand(op isa.Op) bool {
	switch op {
	case isa.OpPSllW, isa.OpPSrlW, isa.OpPSraW, isa.OpPSllD, isa.OpPSrlD,
		isa.OpPSraD, isa.OpPSllQ, isa.OpPSrlQ, isa.OpPShufW:
		return true
	}
	return false
}

// evalPacked applies one packed operation to 64-bit lanes a, b.
func evalPacked(op isa.Op, a, b uint64, imm int64) (uint64, error) {
	switch op {
	case isa.OpPAddB:
		return usimd.PAddB(a, b), nil
	case isa.OpPAddW:
		return usimd.PAddW(a, b), nil
	case isa.OpPAddD:
		return usimd.PAddD(a, b), nil
	case isa.OpPAddSW:
		return usimd.PAddSW(a, b), nil
	case isa.OpPAddUSB:
		return usimd.PAddUSB(a, b), nil
	case isa.OpPSubB:
		return usimd.PSubB(a, b), nil
	case isa.OpPSubW:
		return usimd.PSubW(a, b), nil
	case isa.OpPSubD:
		return usimd.PSubD(a, b), nil
	case isa.OpPSubSW:
		return usimd.PSubSW(a, b), nil
	case isa.OpPSubUSB:
		return usimd.PSubUSB(a, b), nil
	case isa.OpPMullW:
		return usimd.PMullW(a, b), nil
	case isa.OpPMulhW:
		return usimd.PMulhW(a, b), nil
	case isa.OpPMAddWD:
		return usimd.PMAddWD(a, b), nil
	case isa.OpPAvgB:
		return usimd.PAvgB(a, b), nil
	case isa.OpPMinUB:
		return usimd.PMinUB(a, b), nil
	case isa.OpPMaxUB:
		return usimd.PMaxUB(a, b), nil
	case isa.OpPSadBW:
		return usimd.PSadBW(a, b), nil
	case isa.OpPAnd:
		return usimd.PAnd(a, b), nil
	case isa.OpPOr:
		return usimd.POr(a, b), nil
	case isa.OpPXor:
		return usimd.PXor(a, b), nil
	case isa.OpPAndN:
		return usimd.PAndN(a, b), nil
	case isa.OpPSllW:
		return usimd.PSllW(a, int(imm)), nil
	case isa.OpPSrlW:
		return usimd.PSrlW(a, int(imm)), nil
	case isa.OpPSraW:
		return usimd.PSraW(a, int(imm)), nil
	case isa.OpPSllD:
		return usimd.PSllD(a, int(imm)), nil
	case isa.OpPSrlD:
		return usimd.PSrlD(a, int(imm)), nil
	case isa.OpPSraD:
		return usimd.PSraD(a, int(imm)), nil
	case isa.OpPSllQ:
		return usimd.PSllQ(a, int(imm)), nil
	case isa.OpPSrlQ:
		return usimd.PSrlQ(a, int(imm)), nil
	case isa.OpPackUSWB:
		return usimd.PackUSWB(a, b), nil
	case isa.OpPackSSWB:
		return usimd.PackSSWB(a, b), nil
	case isa.OpPackSSDW:
		return usimd.PackSSDW(a, b), nil
	case isa.OpPUnpckLDQ:
		return usimd.PUnpckLDQ(a, b), nil
	case isa.OpPUnpckHDQ:
		return usimd.PUnpckHDQ(a, b), nil
	case isa.OpPUnpckLBW:
		return usimd.PUnpckLBW(a, b), nil
	case isa.OpPUnpckHBW:
		return usimd.PUnpckHBW(a, b), nil
	case isa.OpPUnpckLWD:
		return usimd.PUnpckLWD(a, b), nil
	case isa.OpPUnpckHWD:
		return usimd.PUnpckHWD(a, b), nil
	case isa.OpPShufW:
		return usimd.PShufW(a, int(imm)), nil
	}
	return 0, fmt.Errorf("emu: op %s is not packed", op.Name())
}

// execPacked executes a packed ALU operation over the first vl elements of
// the operand registers (vl = 1 for μSIMD instructions).
func (m *Machine) execPacked(in *isa.Inst, vl int) error {
	switch in.Op {
	case isa.OpVMovI2V:
		if in.Dst.Class() != isa.RCVec || in.Src1.Class() != isa.RCInt {
			return fmt.Errorf("emu: vmovi2v operand classes %v, %v", in.Dst, in.Src1)
		}
		m.Vec[in.Dst.Index()][0] = m.Int[in.Src1.Index()]
		return nil
	case isa.OpVSplatW:
		if in.Dst.Class() != isa.RCVec || in.Src1.Class() != isa.RCInt {
			return fmt.Errorf("emu: vsplatw operand classes %v, %v", in.Dst, in.Src1)
		}
		v := usimd.SplatW(m.Int[in.Src1.Index()])
		for e := 0; e < vl; e++ {
			m.Vec[in.Dst.Index()][e] = v
		}
		return nil
	}
	if in.Dst.Class() != isa.RCVec || in.Src1.Class() != isa.RCVec {
		return fmt.Errorf("emu: packed operand classes %v, %v", in.Dst, in.Src1)
	}
	s2 := 0
	if in.Src2.Valid() {
		if in.Src2.Class() != isa.RCVec {
			return fmt.Errorf("emu: packed source %v is not a vector register", in.Src2)
		}
		s2 = in.Src2.Index()
	} else if !packedImmOperand(in.Op) {
		return fmt.Errorf("emu: packed op %s missing second source", in.Op.Name())
	}
	for e := 0; e < vl; e++ {
		a := m.Vec[in.Src1.Index()][e]
		var b uint64
		if in.Src2.Valid() {
			b = m.Vec[s2][e]
		}
		r, err := evalPacked(in.Op, a, b, in.Imm)
		if err != nil {
			return err
		}
		m.Vec[in.Dst.Index()][e] = r
	}
	return nil
}

func (m *Machine) checkVL(vl int) error {
	if vl < 1 || vl > isa.MOMElems {
		return fmt.Errorf("emu: vector length %d out of range [1,%d]", vl, isa.MOMElems)
	}
	return nil
}

func (m *Machine) execMOM(in *isa.Inst) error {
	if err := m.checkVL(in.VL); err != nil {
		return err
	}
	switch in.Op {
	case isa.OpVSadAcc, isa.OpVMacAcc, isa.OpVAddWAcc:
		return m.execAccumulate(in)
	}
	return m.execPacked(in, in.VL)
}

// execAccumulate implements the MOM packed-accumulator reductions.
func (m *Machine) execAccumulate(in *isa.Inst) error {
	if in.Dst.Class() != isa.RCAcc {
		return fmt.Errorf("emu: accumulate destination %v is not an accumulator", in.Dst)
	}
	if in.Src1.Class() != isa.RCVec {
		return fmt.Errorf("emu: accumulate source %v is not a vector register", in.Src1)
	}
	var sum int64
	for e := 0; e < in.VL; e++ {
		a := m.Vec[in.Src1.Index()][e]
		switch in.Op {
		case isa.OpVSadAcc:
			if in.Src2.Class() != isa.RCVec {
				return fmt.Errorf("emu: vsadacc source %v is not a vector register", in.Src2)
			}
			sum += int64(usimd.PSadBW(a, m.Vec[in.Src2.Index()][e]))
		case isa.OpVMacAcc:
			if in.Src2.Class() != isa.RCVec {
				return fmt.Errorf("emu: vmacacc source %v is not a vector register", in.Src2)
			}
			b := m.Vec[in.Src2.Index()][e]
			for w := 0; w < 4; w++ {
				sum += int64(int16(usimd.Word(a, w))) * int64(int16(usimd.Word(b, w)))
			}
		case isa.OpVAddWAcc:
			for w := 0; w < 4; w++ {
				sum += int64(int16(usimd.Word(a, w)))
			}
		}
	}
	m.Acc[in.Dst.Index()] += sum
	return nil
}

func (m *Machine) execUSIMDMem(in *isa.Inst) error {
	switch in.Op {
	case isa.OpVLoad:
		if in.Dst.Class() != isa.RCVec {
			return fmt.Errorf("emu: μSIMD load destination %v", in.Dst)
		}
		m.Vec[in.Dst.Index()][0] = m.Mem.ReadU64(in.Addr)
		return nil
	case isa.OpVStore:
		if in.Src2.Class() != isa.RCVec {
			return fmt.Errorf("emu: μSIMD store source %v", in.Src2)
		}
		m.Mem.WriteU64(in.Addr, m.Vec[in.Src2.Index()][0])
		return nil
	}
	return fmt.Errorf("emu: op %s is not μSIMD memory", in.Op.Name())
}

func (m *Machine) execMOMMem(in *isa.Inst) error {
	if err := m.checkVL(in.VL); err != nil {
		return err
	}
	switch in.Op {
	case isa.OpVLoad:
		if in.Dst.Class() != isa.RCVec {
			return fmt.Errorf("emu: MOM load destination %v", in.Dst)
		}
		for e := 0; e < in.VL; e++ {
			addr := in.Addr + uint64(int64(e)*in.Stride)
			m.Vec[in.Dst.Index()][e] = m.Mem.ReadU64(addr)
		}
		return nil
	case isa.OpVStore:
		if in.Src2.Class() != isa.RCVec {
			return fmt.Errorf("emu: MOM store source %v", in.Src2)
		}
		for e := 0; e < in.VL; e++ {
			addr := in.Addr + uint64(int64(e)*in.Stride)
			m.Mem.WriteU64(addr, m.Vec[in.Src2.Index()][e])
		}
		return nil
	}
	return fmt.Errorf("emu: op %s is not MOM memory", in.Op.Name())
}

// exec3DLoad implements dvload DRi <- Rj, Rk, W, b (paper §4.1): starting
// at the base address, load W 64-bit words into element 0 of the 3D
// register, then repeat at stride offsets for the remaining VL-1 elements.
// The pointer register is initialized to the beginning of the element
// (b = false) or to the last loaded 64-bit sub-block (b = true), allowing
// the third dimension to be walked in either direction.
func (m *Machine) exec3DLoad(in *isa.Inst) error {
	if in.Dst.Class() != isa.RC3D {
		return fmt.Errorf("emu: dvload destination %v is not a 3D register", in.Dst)
	}
	if err := m.checkVL(in.VL); err != nil {
		return err
	}
	if in.Width < 1 || in.Width > isa.D3ElemWords {
		return fmt.Errorf("emu: dvload width %d out of range [1,%d]", in.Width, isa.D3ElemWords)
	}
	d := in.Dst.Index()
	for e := 0; e < in.VL; e++ {
		base := in.Addr + uint64(int64(e)*in.Stride)
		for w := 0; w < in.Width; w++ {
			m.D3[d][e][w] = m.Mem.ReadU64(base + uint64(w*8))
		}
		for w := in.Width; w < isa.D3ElemWords; w++ {
			m.D3[d][e][w] = 0
		}
	}
	if in.Back {
		m.Ptr[d] = (in.Width - 1) * 8
	} else {
		m.Ptr[d] = 0
	}
	return nil
}

// exec3DMove implements 3dvmov MRi <- DRj, Ps (paper §4.1): for each of VL
// elements, extract the 64-bit sub-block at the current pointer offset
// (byte-aligned; the hardware shift&mask network reads the two containing
// quadwords) into the MOM register, then advance the pointer by Ps. The
// pointer wraps modulo 2^PtrBits, matching its 7-bit storage.
func (m *Machine) exec3DMove(in *isa.Inst) error {
	if in.Dst.Class() != isa.RCVec {
		return fmt.Errorf("emu: 3dvmov destination %v is not a vector register", in.Dst)
	}
	if in.Src1.Class() != isa.RC3D {
		return fmt.Errorf("emu: 3dvmov source %v is not a 3D register", in.Src1)
	}
	if in.Ptr.Class() != isa.RCPtr || in.Ptr.Index() != in.Src1.Index() {
		return fmt.Errorf("emu: 3dvmov pointer %v does not match 3D register %v", in.Ptr, in.Src1)
	}
	if err := m.checkVL(in.VL); err != nil {
		return err
	}
	d := in.Src1.Index()
	off := m.Ptr[d] & ptrMask
	for e := 0; e < in.VL; e++ {
		m.Vec[in.Dst.Index()][e] = m.d3Slice(d, e, off)
	}
	m.Ptr[d] = (off + in.PtrStep) & ptrMask
	return nil
}

// d3Slice extracts the 64-bit value at byte offset off within element e of
// 3D register d, emulating the byte-alignment shift&mask network. Reads
// past the end of the 128-byte element return zero bytes.
func (m *Machine) d3Slice(d, e, off int) uint64 {
	w := off >> 3
	sh := uint(off&7) * 8
	lo := m.D3[d][e][w]
	var hi uint64
	if sh != 0 && w+1 < isa.D3ElemWords {
		hi = m.D3[d][e][w+1]
	}
	if sh == 0 {
		return lo
	}
	return lo>>sh | hi<<(64-sh)
}
