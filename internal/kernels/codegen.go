package kernels

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// cg dispatches the μSIMD-style code shared between variants: under MMX it
// emits KindUSIMD operations and L1 μSIMD memory accesses; under MOM and
// MOM3D it emits the same operations as VL=1 MOM instructions, whose
// memory accesses travel through the L2 vector port (the MOM cache
// hierarchy of §5.3 routes all multimedia memory around the L1).
type cg struct {
	b *prog.Builder
	v Variant
}

// ld emits a 64-bit multimedia load from base+off.
func (c *cg) ld(dst, base isa.Reg, off int64, pack int) {
	if c.v == MMX {
		c.b.MMXLoad(dst, base, off, pack)
	} else {
		c.b.MOMLoad(dst, base, off, 8, 1, pack)
	}
}

// st emits a 64-bit multimedia store to base+off.
func (c *cg) st(base isa.Reg, off int64, src isa.Reg, pack int) {
	if c.v == MMX {
		c.b.MMXStore(base, off, src, pack)
	} else {
		c.b.MOMStore(base, off, 8, src, 1, pack)
	}
}

// op emits a two-source packed operation.
func (c *cg) op(op isa.Op, dst, s1, s2 isa.Reg) {
	if c.v == MMX {
		c.b.U(op, dst, s1, s2)
	} else {
		c.b.M(op, dst, s1, s2, 1)
	}
}

// opi emits a packed operation with an immediate.
func (c *cg) opi(op isa.Op, dst, s1 isa.Reg, imm int64) {
	if c.v == MMX {
		c.b.UImm(op, dst, s1, imm)
	} else {
		c.b.MImm(op, dst, s1, imm, 1)
	}
}

// Vector register assignments for the shared code generators (see the
// package comment for the full convention).
var (
	vZero  = isa.V(0)
	vB01   = isa.V(1)
	vB23   = isa.V(2)
	vB45   = isa.V(3)
	vB67   = isa.V(4)
	vT0    = isa.V(5)
	vT1    = isa.V(6)
	vRound = isa.V(7)
	vC0    = isa.V(8)
	vC1    = isa.V(9)
	vC2    = isa.V(10)
	vC3    = isa.V(11)
	vW0    = isa.V(12)
	vW1    = isa.V(13)
	vQTab  = isa.V(14) // MOM variants: resident quant reciprocal table
	vDQTab = isa.V(15) // MOM variants: resident dequant step table
)

// Scalar register assignments for the table bases.
var (
	rFCoef  = isa.R(20) // packed FDCT coefficient table
	rICoef  = isa.R(21) // packed IDCT coefficient table
	rRound  = isa.R(22) // dword-pair rounding constant
	rTmpA   = isa.R(23) // DCT intermediate block A
	rTmpB   = isa.R(24) // DCT intermediate block B
	rQuant  = isa.R(25) // quant reciprocal table
	rDQuant = isa.R(26) // dequant step table
)

// mmxCoefBase is the first of the 16 resident coefficient registers used
// by the MMX DCT pass (v16..v31).
const mmxCoefBase = 16

// dctGen emits 8x8 block transforms. One instance serves a whole kernel
// run; prepare must be called once before the first transform.
type dctGen struct {
	e *env
	// mmxResident identifies which packed table currently occupies
	// v16..v31 under the MMX variant (0 none, 'f' fdct, 'i' idct).
	mmxResident byte
}

// prepareDCT allocates and initializes the table storage shared by all
// DCT users: packed coefficient layouts, the rounding constant, and the
// two intermediate block buffers. It loads the rounding constant into
// vRound, where it stays resident.
func (e *env) prepareDCT() *dctGen {
	fc := packedCoefLayout(&fdctCoef)
	ic := packedCoefLayout(&idctCoef)
	fAddr := e.alloc(blockBytes, 8)
	iAddr := e.alloc(blockBytes, 8)
	e.write16(fAddr, fc)
	e.write16(iAddr, ic)
	rAddr := e.alloc(8, 8)
	e.m.Mem.WriteU32(rAddr, dctRound)
	e.m.Mem.WriteU32(rAddr+4, dctRound)
	tA := e.alloc(blockBytes, 8)
	tB := e.alloc(blockBytes, 8)

	e.setBase(rFCoef, fAddr)
	e.setBase(rICoef, iAddr)
	e.setBase(rRound, rAddr)
	e.setBase(rTmpA, tA)
	e.setBase(rTmpB, tB)

	if e.v == MMX {
		e.b.MMXLoad(vRound, rRound, 0, 2)
	} else {
		// Broadcast the rounding pair across all elements.
		e.b.MOMLoad(vRound, rRound, 0, 0, isa.MOMElems, 2)
	}
	return &dctGen{e: e}
}

// loadMMXCoefs makes the packed table at rCoef resident in v16..v31.
func (d *dctGen) loadMMXCoefs(rCoef isa.Reg, tag byte) {
	if d.mmxResident == tag {
		return
	}
	for i := 0; i < 16; i++ {
		d.e.b.MMXLoad(isa.V(mmxCoefBase+i), rCoef, int64(8*i), 4)
	}
	d.mmxResident = tag
}

// pass emits one transform pass: dst[y][u] = sat16((Σ_x src[y][x]*T[u][x]
// + 2048) >> 12) for the 8x8 int16 block at rSrc (row stride 16 bytes),
// writing rDst. The MMX form iterates rows; the MOM form vectorizes the
// row dimension with VL=8.
func (d *dctGen) pass(rSrc, rDst, rCoef isa.Reg) {
	c := d.e.c
	if d.e.v == MMX {
		for y := 0; y < 8; y++ {
			off := int64(y * 16)
			c.ld(vT0, rSrc, off, 4)
			c.ld(vT1, rSrc, off+8, 4)
			c.opi(isa.OpPShufW, vB01, vT0, 0x44)
			c.opi(isa.OpPShufW, vB23, vT0, 0xee)
			c.opi(isa.OpPShufW, vB45, vT1, 0x44)
			c.opi(isa.OpPShufW, vB67, vT1, 0xee)
			for g := 0; g < 4; g++ {
				cr := func(p int) isa.Reg { return isa.V(mmxCoefBase + g*4 + p) }
				acc := vW0
				if g%2 == 1 {
					acc = vW1
				}
				c.op(isa.OpPMAddWD, acc, vB01, cr(0))
				c.op(isa.OpPMAddWD, vT0, vB23, cr(1))
				c.op(isa.OpPAddD, acc, acc, vT0)
				c.op(isa.OpPMAddWD, vT0, vB45, cr(2))
				c.op(isa.OpPAddD, acc, acc, vT0)
				c.op(isa.OpPMAddWD, vT0, vB67, cr(3))
				c.op(isa.OpPAddD, acc, acc, vT0)
				c.op(isa.OpPAddD, acc, acc, vRound)
				c.opi(isa.OpPSraD, acc, acc, dctScaleBits)
				if g%2 == 1 {
					c.op(isa.OpPackSSDW, vW0, vW0, vW1)
					c.st(rDst, off+int64(g/2)*8, vW0, 4)
				}
			}
		}
		return
	}
	// MOM form: elements are rows.
	b := d.e.b
	b.MOMLoad(vT0, rSrc, 0, 16, 8, 4)
	b.MOMLoad(vT1, rSrc, 8, 16, 8, 4)
	b.MImm(isa.OpPShufW, vB01, vT0, 0x44, 8)
	b.MImm(isa.OpPShufW, vB23, vT0, 0xee, 8)
	b.MImm(isa.OpPShufW, vB45, vT1, 0x44, 8)
	b.MImm(isa.OpPShufW, vB67, vT1, 0xee, 8)
	for g := 0; g < 4; g++ {
		// Broadcast the four coefficient quadwords for this u-group.
		for p := 0; p < 4; p++ {
			b.MOMLoad(isa.V(vC0.Index()+p), rCoef, int64((g*4+p)*8), 0, 8, 4)
		}
		acc := vW0
		if g%2 == 1 {
			acc = vW1
		}
		b.M(isa.OpPMAddWD, acc, vB01, vC0, 8)
		b.M(isa.OpPMAddWD, vT0, vB23, vC1, 8)
		b.M(isa.OpPAddD, acc, acc, vT0, 8)
		b.M(isa.OpPMAddWD, vT0, vB45, vC2, 8)
		b.M(isa.OpPAddD, acc, acc, vT0, 8)
		b.M(isa.OpPMAddWD, vT0, vB67, vC3, 8)
		b.M(isa.OpPAddD, acc, acc, vT0, 8)
		b.M(isa.OpPAddD, acc, acc, vRound, 8)
		b.MImm(isa.OpPSraD, acc, acc, dctScaleBits, 8)
		if g%2 == 1 {
			b.M(isa.OpPackSSDW, vW0, vW0, vW1, 8)
			b.MOMStore(rDst, int64(g/2)*8, 16, vW0, 8, 4)
		}
	}
}

// transpose emits an 8x8 int16 transpose from rSrc to rDst (distinct
// buffers). The MMX form uses four 4x4 punpck tile networks on the four
// parallel μSIMD units. Under MOM, where μSIMD-style work issues one per
// cycle on the single vector unit and every 64-bit temporary would cross
// the L2 vector port, the better schedule moves the 64 halfwords through
// the otherwise idle scalar pipes and the L1 (a standard strength
// reduction for this ISA; four rotating temporaries keep the loads
// pipelined).
func (d *dctGen) transpose(rSrc, rDst isa.Reg) {
	if d.e.v != MMX {
		b := d.e.b
		tmp := [4]isa.Reg{isa.R(11), isa.R(12), isa.R(13), isa.R(14)}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				r := tmp[(y*8+x)%4]
				b.LoadS(r, rSrc, int64(y*16+x*2), 2)
				b.Store(rDst, int64(x*16+y*2), r, 2)
			}
		}
		return
	}
	c := d.e.c
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for r := 0; r < 4; r++ {
				c.ld(isa.V(1+r), rSrc, int64((4*i+r)*16+j*8), 4)
			}
			c.op(isa.OpPUnpckLWD, vT0, vB01, vB23)
			c.op(isa.OpPUnpckHWD, vT1, vB01, vB23)
			c.op(isa.OpPUnpckLWD, vB01, vB45, vB67)
			c.op(isa.OpPUnpckHWD, vB23, vB45, vB67)
			c.op(isa.OpPUnpckLDQ, vB45, vT0, vB01)
			c.op(isa.OpPUnpckHDQ, vB67, vT0, vB01)
			c.op(isa.OpPUnpckLDQ, vT0, vT1, vB23)
			c.op(isa.OpPUnpckHDQ, vT1, vT1, vB23)
			outs := [4]isa.Reg{vB45, vB67, vT0, vT1}
			for r := 0; r < 4; r++ {
				c.st(rDst, int64((4*j+r)*16+i*8), outs[r], 4)
			}
		}
	}
}

// fdct emits the full forward transform of the block at rSrc into rDst.
func (d *dctGen) fdct(rSrc, rDst isa.Reg) { d.transform(rSrc, rDst, rFCoef, 'f') }

// idct emits the full inverse transform of the block at rSrc into rDst.
func (d *dctGen) idct(rSrc, rDst isa.Reg) { d.transform(rSrc, rDst, rICoef, 'i') }

func (d *dctGen) transform(rSrc, rDst, rCoef isa.Reg, tag byte) {
	if d.e.v == MMX {
		d.loadMMXCoefs(rCoef, tag)
	}
	d.pass(rSrc, rTmpA, rCoef)
	d.transpose(rTmpA, rTmpB)
	d.pass(rTmpB, rTmpA, rCoef)
	d.transpose(rTmpA, rDst)
}

// prepareQuant installs the quantization tables: reciprocals at rQuant,
// steps at rDQuant; under MOM variants both become resident MOM registers
// (a whole 8x8 table fits one 16-element register).
func (e *env) prepareQuant(steps *[64]int16) {
	recips := quantRecips(steps)
	qAddr := e.alloc(blockBytes, 8)
	dqAddr := e.alloc(blockBytes, 8)
	e.write16(qAddr, recips[:])
	e.write16(dqAddr, steps[:])
	e.setBase(rQuant, qAddr)
	e.setBase(rDQuant, dqAddr)
	if e.v != MMX {
		e.b.MOMLoad(vQTab, rQuant, 0, 8, 16, 4)
		e.b.MOMLoad(vDQTab, rDQuant, 0, 8, 16, 4)
	}
}

// quant emits pmulhw quantization of the block at rSrc into rDst.
func (e *env) quant(rSrc, rDst isa.Reg) {
	if e.v == MMX {
		for i := 0; i < 16; i++ {
			off := int64(8 * i)
			e.b.MMXLoad(vT0, rSrc, off, 4)
			e.b.MMXLoad(vT1, rQuant, off, 4)
			e.b.U(isa.OpPMulhW, vT0, vT0, vT1)
			e.b.MMXStore(rDst, off, vT0, 4)
		}
		return
	}
	e.b.MOMLoad(vT0, rSrc, 0, 8, 16, 4)
	e.b.M(isa.OpPMulhW, vT0, vT0, vQTab, 16)
	e.b.MOMStore(rDst, 0, 8, vT0, 16, 4)
}

// dequant emits pmullw dequantization of the block at rSrc into rDst.
func (e *env) dequant(rSrc, rDst isa.Reg) {
	if e.v == MMX {
		for i := 0; i < 16; i++ {
			off := int64(8 * i)
			e.b.MMXLoad(vT0, rSrc, off, 4)
			e.b.MMXLoad(vT1, rDQuant, off, 4)
			e.b.U(isa.OpPMullW, vT0, vT0, vT1)
			e.b.MMXStore(rDst, off, vT0, 4)
		}
		return
	}
	e.b.MOMLoad(vT0, rSrc, 0, 8, 16, 4)
	e.b.M(isa.OpPMullW, vT0, vT0, vDQTab, 16)
	e.b.MOMStore(rDst, 0, 8, vT0, 16, 4)
}

// zeroVec clears v0 across all elements; kernels that use unpacking call
// it once at the start.
func (e *env) zeroVec() {
	if e.v == MMX {
		e.b.U(isa.OpPXor, vZero, vZero, vZero)
	} else {
		e.b.M(isa.OpPXor, vZero, vZero, vZero, isa.MOMElems)
	}
}
