package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
)

// The paper's full-search motion estimation kernel (Fig 1/4), shared by
// mpeg2encode and motionsearch: a 16x16 block of the current frame is
// compared, by sum of absolute differences, with every horizontally
// displaced candidate block in one or more rows of the reference frame,
// and a running minimum keeps the best.

// searchRange returns the candidate displacement window [lo, hi] of
// cands horizontal candidates for a macroblock at x0 in a frame w pixels
// wide, clipped so every candidate block stays in the frame.
func searchRange(cands, w, x0 int) (lo, hi int) {
	lo = -cands / 2
	hi = lo + cands - 1
	if lo < -x0 {
		lo = -x0
	}
	if hi > w-16-x0 {
		hi = w - 16 - x0
	}
	return lo, hi
}

// loadSearchBlock loads the 16x16 block at rCur (rows w bytes apart)
// into vW0/vW1 once per block under the MOM variants; the MMX candidate
// loop reloads it for every candidate.
func loadSearchBlock(e *env, rCur isa.Reg, w int64) {
	if e.v != MMX {
		e.b.MOMLoad(vW0, rCur, 0, w, 16, 8)
		e.b.MOMLoad(vW1, rCur, 8, w, 16, 8)
	}
}

// sadRow emits the SAD of the block at rCur against every candidate dx
// in [lo, hi] of one reference row, whose candidate lo starts at rRef.
// Each candidate's SAD lands in rSad, and then cand(dx) emits what the
// caller does with it. Under MOM+3D one dvload of width-word elements
// captures the whole row, so width*8 must cover the hi-lo+16 bytes the
// candidates span.
func sadRow(e *env, rCur, rRef, rSad isa.Reg, w int64, lo, hi, width int, cand func(dx int)) {
	b := e.b
	if e.v == MOM3D {
		// Candidate dx slices the 3D register at byte offset dx-lo.
		b.DVLoad(isa.D(0), rRef, 0, w, 16, width, false, 8)
	}
	for dx := lo; dx <= hi; dx++ {
		i := int64(dx - lo)
		switch e.v {
		case MMX:
			b.U(isa.OpPXor, vT0, vT0, vT0)
			for y := 0; y < 16; y++ {
				o := int64(y) * w
				b.MMXLoad(vB01, rCur, o, 8)
				b.MMXLoad(vB23, rCur, o+8, 8)
				b.MMXLoad(vB45, rRef, o+i, 8)
				b.MMXLoad(vB67, rRef, o+i+8, 8)
				b.U(isa.OpPSadBW, vB45, vB01, vB45)
				b.U(isa.OpPSadBW, vB67, vB23, vB67)
				b.U(isa.OpPAddD, vT0, vT0, vB45)
				b.U(isa.OpPAddD, vT0, vT0, vB67)
			}
			b.MovV2I(rSad, vT0, 0)
		case MOM:
			b.MOMLoad(vB01, rRef, i, w, 16, 8)
			b.MOMLoad(vB23, rRef, i+8, w, 16, 8)
		case MOM3D:
			b.DVMov(vB01, isa.D(0), 8, 16)  // slice at p, ptr -> p+8
			b.DVMov(vB23, isa.D(0), -7, 16) // slice at p+8, ptr -> p+1
		}
		if e.v != MMX {
			b.AccClr(isa.A(0))
			b.VSadAcc(isa.A(0), vW0, vB01, 16)
			b.VSadAcc(isa.A(0), vW1, vB23, 16)
			b.AccMov(rSad, isa.A(0))
		}
		cand(dx)
	}
}

// newMin emits the running-minimum compare of the full search: a
// compare, a conditional branch and, when it is taken, the move of rSad
// into rMin. It reports whether the branch was taken, so the caller can
// record the new minimum's position in its own registers.
func newMin(e *env, rSad, rMin, rCond isa.Reg) bool {
	e.b.Slt(rCond, rSad, rMin)
	if e.b.BrNZ(rCond) {
		e.b.Mov(rMin, rSad)
		return true
	}
	return false
}

// refSAD is the scalar reference of one candidate: the SAD of the 16x16
// block at (x0, y0) of cur against the block displaced by (dx, dy) in
// ref.
func refSAD(cur, ref *media.Frame, x0, y0, dx, dy int) int32 {
	var sad int32
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			a := int32(cur.Pix[(y0+y)*cur.Stride+x0+x])
			b := int32(ref.Pix[(y0+dy+y)*ref.Stride+x0+dx+x])
			if a > b {
				sad += a - b
			} else {
				sad += b - a
			}
		}
	}
	return sad
}
