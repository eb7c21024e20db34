package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// MPEG2EncConfig sizes the mpeg2encode workload: full-search motion
// estimation over horizontal candidates (the paper's Figure 1/4 kernel),
// followed by residual computation, forward DCT and quantization of every
// macroblock.
type MPEG2EncConfig struct {
	W, H  int    // luminance frame dimensions (multiples of 16)
	Cands int    // number of horizontal search candidates per row (≤ 25)
	Rows  int    // number of candidate rows (vertical refinement)
	Seed  uint64 // content seed
}

// DefaultMPEG2EncConfig is the experiment-scale workload.
func DefaultMPEG2EncConfig() MPEG2EncConfig {
	return MPEG2EncConfig{W: 176, H: 80, Cands: 20, Rows: 2, Seed: 0xC0FFEE}
}

// SmallMPEG2EncConfig is a fast configuration for unit tests. It keeps
// the full-width candidate search so motion estimation still dominates,
// as it does at experiment scale.
func SmallMPEG2EncConfig() MPEG2EncConfig {
	return MPEG2EncConfig{W: 64, H: 32, Cands: 20, Rows: 2, Seed: 0xC0FFEE}
}

// MPEG2Encode builds the mpeg2encode benchmark.
func MPEG2Encode(cfg MPEG2EncConfig) Benchmark {
	return Benchmark{
		Name:  "mpeg2encode",
		Has3D: true,
		run:   func(v Variant, sink trace.Sink) []byte { return mpeg2encRun(cfg, v, sink) },
		ref:   func() []byte { return mpeg2encRef(cfg) },
	}
}

// mpeg2encPictures is the frame pair: the reference frame and its
// successor, the content moved by (-3, 0) and noise added.
func mpeg2encPictures(cfg MPEG2EncConfig) (cur, ref media.Picture) {
	ref = media.NewPicture(cfg.W, cfg.H, 0, 0, cfg.Seed)
	cur = media.NewPicture(cfg.W, cfg.H, 3, 0, cfg.Seed).Noisy(5, cfg.Seed^0x5eed)
	return cur, ref
}

func mpeg2encRun(cfg MPEG2EncConfig, v Variant, sink trace.Sink) []byte {
	cur, ref := mpeg2encPictures(cfg)
	e := newEnv(v, sink)

	curA := e.input(cur)
	refA := e.input(ref)
	residA := e.alloc(blockBytes, 64)
	coefA := e.alloc(blockBytes, 64)
	nMB := (cfg.W / 16) * (cfg.H / 16)
	outA := e.alloc(nMB*4*blockBytes, 64)

	e.zeroVec()
	d := e.prepareDCT()
	e.prepareQuant(&mpeg2QuantTable)

	var (
		rCur  = isa.R(1)
		rRef  = isa.R(2)
		rRes  = isa.R(3)
		rCoef = isa.R(4)
		rOut  = isa.R(5)
		rSad  = isa.R(6)
		rMin  = isa.R(7)
		rPos  = isa.R(8)
		rCond = isa.R(9)
		rPosY = isa.R(10)
	)
	e.setBase(rRes, residA)
	e.setBase(rCoef, coefA)

	dg := newDigest()
	W := int64(cfg.W)
	b := e.b
	mb := 0
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 {
			lo, hi := searchRange(cfg.Cands, cfg.W, x0)
			maxDy := cfg.Rows - 1
			if y0+16+maxDy > cfg.H {
				maxDy = cfg.H - 16 - y0
			}
			e.setBase(rCur, curA+uint64(y0*cfg.W+x0))
			b.MovImm(rMin, 1<<30)
			b.MovImm(rPos, int64(lo))
			b.MovImm(rPosY, 0)
			loadSearchBlock(e, rCur, W)
			for dy := 0; dy <= maxDy; dy++ {
				e.setBase(rRef, refA+uint64((y0+dy)*cfg.W+x0+lo))
				// A 5-word (40-byte) dvload covers the hi-lo+16 bytes
				// a row of up to 25 candidates spans.
				sadRow(e, rCur, rRef, rSad, W, lo, hi, 5, func(dx int) {
					if newMin(e, rSad, rMin, rCond) {
						b.MovImm(rPos, int64(dx))
						b.MovImm(rPosY, int64(dy))
					}
				})
			}

			// Residual coding of the four 8x8 luminance blocks against
			// the best candidate.
			bestDx := int(e.m.IntVal(rPos))
			bestDy := int(e.m.IntVal(rPosY))
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					cb := curA + uint64((y0+8*by)*cfg.W+x0+8*bx)
					rb := refA + uint64((y0+bestDy+8*by)*cfg.W+x0+bestDx+8*bx)
					e.setBase(rCur, cb)
					e.setBase(rRef, rb)
					emitResidual(e, rCur, rRef, rRes, W)
					d.fdct(rRes, rCoef)
					e.setBase(rOut, outA+uint64((mb*4+by*2+bx)*blockBytes))
					e.quant(rCoef, rOut)
				}
			}
			dg.u32(uint32(int32(e.m.IntVal(rMin))))
			dg.u32(uint32(int32(bestDx)))
			dg.u32(uint32(int32(bestDy)))
			mb++
		}
	}
	dg.mem(e.m.Mem, outA, nMB*4*blockBytes)
	return dg.sum()
}

// emitResidual emits cur - ref of one 8x8 block (byte rows at stride W)
// into the 16-bit residual buffer at rRes.
func emitResidual(e *env, rCur, rRef, rRes isa.Reg, W int64) {
	e.rows(8, func(r row) {
		r.ld(vB01, rCur, 0, W, 8)
		r.ld(vB23, rRef, 0, W, 8)
		r.op(isa.OpPUnpckLBW, vT0, vB01, vZero)
		r.op(isa.OpPUnpckHBW, vT1, vB01, vZero)
		r.op(isa.OpPUnpckLBW, vB45, vB23, vZero)
		r.op(isa.OpPUnpckHBW, vB67, vB23, vZero)
		r.op(isa.OpPSubW, vT0, vT0, vB45)
		r.op(isa.OpPSubW, vT1, vT1, vB67)
		r.st(rRes, 0, 16, vT0, 4)
		r.st(rRes, 8, 16, vT1, 4)
	})
}

func mpeg2encRef(cfg MPEG2EncConfig) []byte {
	curP, refP := mpeg2encPictures(cfg)
	cur, ref := curP.Frame(), refP.Frame()
	recips := quantRecips(&mpeg2QuantTable)
	dg := newDigest()
	var stream []int16
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 {
			lo, hi := searchRange(cfg.Cands, cfg.W, x0)
			maxDy := cfg.Rows - 1
			if y0+16+maxDy > cfg.H {
				maxDy = cfg.H - 16 - y0
			}
			min, pos, posY := int32(1<<30), lo, 0
			for dy := 0; dy <= maxDy; dy++ {
				for dx := lo; dx <= hi; dx++ {
					if sad := refSAD(cur, ref, x0, y0, dx, dy); sad < min {
						min, pos, posY = sad, dx, dy
					}
				}
			}
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					var resid [64]int16
					for y := 0; y < 8; y++ {
						for x := 0; x < 8; x++ {
							c := int16(cur.Pix[(y0+8*by+y)*cfg.W+x0+8*bx+x])
							r := int16(ref.Pix[(y0+posY+8*by+y)*cfg.W+x0+pos+8*bx+x])
							resid[y*8+x] = c - r
						}
					}
					f := RefFDCT(&resid)
					q := refQuant(&f, &recips)
					stream = append(stream, q[:]...)
				}
			}
			dg.u32(uint32(min))
			dg.u32(uint32(int32(pos)))
			dg.u32(uint32(int32(posY)))
		}
	}
	dg.u16s(stream)
	return dg.sum()
}
