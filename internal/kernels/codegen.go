package kernels

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// row is one step of a row loop (env.rows): a single row under MMX, a
// strip of up to isa.MOMElems rows under MOM and MOM+3D. Its methods
// emit one instruction for the whole step, addressing the step's first
// row at off + y*stride.
type row struct {
	b  *prog.Builder
	y  int // first row of the step
	vl int // rows in the strip; 0 for a μSIMD row
}

// rows emits body for rows 0..n-1: under MMX once per row, as μSIMD
// instructions; under MOM and MOM+3D once per strip of at most
// isa.MOMElems rows, as MOM instructions of the strip's vector length.
// A kernel's MMX code is its MOM code with the row dimension unrolled.
func (e *env) rows(n int, body func(r row)) {
	if e.v == MMX {
		for y := 0; y < n; y++ {
			body(row{b: e.b, y: y})
		}
		return
	}
	for y := 0; y < n; y += isa.MOMElems {
		body(row{b: e.b, y: y, vl: min(n-y, isa.MOMElems)})
	}
}

// at is the address offset of the step's first row.
func (r row) at(off, stride int64) int64 { return off + int64(r.y)*stride }

// ld loads 64 bits per row from base+off, rows stride bytes apart.
func (r row) ld(dst, base isa.Reg, off, stride int64, pack int) {
	if r.vl == 0 {
		r.b.MMXLoad(dst, base, r.at(off, stride), pack)
	} else {
		r.b.MOMLoad(dst, base, r.at(off, stride), stride, r.vl, pack)
	}
}

// st stores 64 bits per row to base+off, rows stride bytes apart.
func (r row) st(base isa.Reg, off, stride int64, src isa.Reg, pack int) {
	if r.vl == 0 {
		r.b.MMXStore(base, r.at(off, stride), src, pack)
	} else {
		r.b.MOMStore(base, r.at(off, stride), stride, src, r.vl, pack)
	}
}

// op emits a two-source packed operation.
func (r row) op(op isa.Op, dst, s1, s2 isa.Reg) {
	if r.vl == 0 {
		r.b.U(op, dst, s1, s2)
	} else {
		r.b.M(op, dst, s1, s2, r.vl)
	}
}

// opi emits a packed operation with an immediate.
func (r row) opi(op isa.Op, dst, s1 isa.Reg, imm int64) {
	if r.vl == 0 {
		r.b.UImm(op, dst, s1, imm)
	} else {
		r.b.MImm(op, dst, s1, imm, r.vl)
	}
}

// splat broadcasts the low 16 bits of scalar src across dst.
func (r row) splat(dst, src isa.Reg) {
	if r.vl == 0 {
		r.b.SplatW(dst, src)
	} else {
		r.b.MSplatW(dst, src, r.vl)
	}
}

// broadcast is the step that sets a value every one of n rows shares:
// under MMX one μSIMD register, which serves each row a row loop
// visits; under MOM one instruction of VL n.
func (e *env) broadcast(n int) row {
	if e.v == MMX {
		return row{b: e.b}
	}
	return row{b: e.b, vl: n}
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

	e.broadcast(isa.MOMElems).ld(vRound, rRound, 0, 0, 2)
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
// writing rDst. The rows are the vector dimension: MMX unrolls them, MOM
// runs them as one VL=8 strip.
func (d *dctGen) pass(rSrc, rDst, rCoef isa.Reg) {
	d.e.rows(8, func(r row) {
		r.ld(vT0, rSrc, 0, 16, 4)
		r.ld(vT1, rSrc, 8, 16, 4)
		r.opi(isa.OpPShufW, vB01, vT0, 0x44)
		r.opi(isa.OpPShufW, vB23, vT0, 0xee)
		r.opi(isa.OpPShufW, vB45, vT1, 0x44)
		r.opi(isa.OpPShufW, vB67, vT1, 0xee)
		for g := 0; g < 4; g++ {
			c := d.coefs(r, rCoef, g)
			acc := vW0
			if g%2 == 1 {
				acc = vW1
			}
			r.op(isa.OpPMAddWD, acc, vB01, isa.V(c))
			r.op(isa.OpPMAddWD, vT0, vB23, isa.V(c+1))
			r.op(isa.OpPAddD, acc, acc, vT0)
			r.op(isa.OpPMAddWD, vT0, vB45, isa.V(c+2))
			r.op(isa.OpPAddD, acc, acc, vT0)
			r.op(isa.OpPMAddWD, vT0, vB67, isa.V(c+3))
			r.op(isa.OpPAddD, acc, acc, vT0)
			r.op(isa.OpPAddD, acc, acc, vRound)
			r.opi(isa.OpPSraD, acc, acc, dctScaleBits)
			if g%2 == 1 {
				r.op(isa.OpPackSSDW, vW0, vW0, vW1)
				r.st(rDst, int64(g/2)*8, 16, vW0, 4)
			}
		}
	})
}

// coefs returns the index of the first of the four vector registers
// holding u-group g's coefficient quadwords. Under MMX the whole table
// is resident in v16..v31 (transform loads it); under MOM a resident
// table would take all 16 logical matrix registers, so each group's
// four quadwords are broadcast down the strip into vC0..vC3 before use.
func (d *dctGen) coefs(r row, rCoef isa.Reg, g int) int {
	if d.e.v == MMX {
		return mmxCoefBase + g*4
	}
	for p := 0; p < 4; p++ {
		r.ld(isa.V(vC0.Index()+p), rCoef, int64((g*4+p)*8), 0, 4)
	}
	return vC0.Index()
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
	b := d.e.b
	if d.e.v != MMX {
		tmp := [4]isa.Reg{isa.R(11), isa.R(12), isa.R(13), isa.R(14)}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				r := tmp[(y*8+x)%4]
				b.LoadS(r, rSrc, int64(y*16+x*2))
				b.Store(rDst, int64(x*16+y*2), r)
			}
		}
		return
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for r := 0; r < 4; r++ {
				b.MMXLoad(isa.V(1+r), rSrc, int64((4*i+r)*16+j*8), 4)
			}
			b.U(isa.OpPUnpckLWD, vT0, vB01, vB23)
			b.U(isa.OpPUnpckHWD, vT1, vB01, vB23)
			b.U(isa.OpPUnpckLWD, vB01, vB45, vB67)
			b.U(isa.OpPUnpckHWD, vB23, vB45, vB67)
			b.U(isa.OpPUnpckLDQ, vB45, vT0, vB01)
			b.U(isa.OpPUnpckHDQ, vB67, vT0, vB01)
			b.U(isa.OpPUnpckLDQ, vT0, vT1, vB23)
			b.U(isa.OpPUnpckHDQ, vT1, vT1, vB23)
			outs := [4]isa.Reg{vB45, vB67, vT0, vT1}
			for r := 0; r < 4; r++ {
				b.MMXStore(rDst, int64((4*j+r)*16+i*8), outs[r], 4)
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
func (e *env) quant(rSrc, rDst isa.Reg) { e.scale(isa.OpPMulhW, rSrc, rDst, rQuant, vQTab) }

// dequant emits pmullw dequantization of the block at rSrc into rDst.
func (e *env) dequant(rSrc, rDst isa.Reg) { e.scale(isa.OpPMullW, rSrc, rDst, rDQuant, vDQTab) }

// scale multiplies the 16 quadwords of the block at rSrc by the table at
// rTab with op, writing rDst.
func (e *env) scale(op isa.Op, rSrc, rDst, rTab, vTab isa.Reg) {
	e.rows(16, func(r row) {
		r.ld(vT0, rSrc, 0, 8, 4)
		r.op(op, vT0, vT0, e.tableRow(r, rTab, vTab))
		r.st(rDst, 0, 8, vT0, 4)
	})
}

// tableRow returns the register holding the quantization table's rows
// for step r. Under MOM the whole table is resident in vTab (one VL=16
// register, loaded by prepareQuant); under MMX a 64-bit register holds
// one row, so each row is loaded from rTab into vT1.
func (e *env) tableRow(r row, rTab, vTab isa.Reg) isa.Reg {
	if e.v != MMX {
		return vTab
	}
	r.ld(vT1, rTab, 0, 8, 4)
	return vT1
}

// zeroVec clears v0 across all elements; kernels that use unpacking call
// it once at the start.
func (e *env) zeroVec() { e.broadcast(isa.MOMElems).op(isa.OpPXor, vZero, vZero, vZero) }
