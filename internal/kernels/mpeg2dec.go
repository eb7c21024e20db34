package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// MPEG2DecConfig sizes the mpeg2decode workload: per-macroblock coefficient
// dequantization, inverse DCT, and motion compensation (with half-pel
// horizontal interpolation) against a reference frame.
type MPEG2DecConfig struct {
	W, H int    // frame dimensions (multiples of 16)
	Seed uint64 // content seed
}

// DefaultMPEG2DecConfig is the experiment-scale workload.
func DefaultMPEG2DecConfig() MPEG2DecConfig {
	return MPEG2DecConfig{W: 176, H: 96, Seed: 0xDEC0DE}
}

// SmallMPEG2DecConfig is a fast configuration for unit tests.
func SmallMPEG2DecConfig() MPEG2DecConfig {
	return MPEG2DecConfig{W: 48, H: 32, Seed: 0xDEC0DE}
}

// MPEG2Decode builds the mpeg2decode benchmark.
func MPEG2Decode(cfg MPEG2DecConfig) Benchmark {
	return Benchmark{
		Name:  "mpeg2decode",
		Has3D: true,
		run:   func(v Variant, sink trace.Sink) []byte { return mpeg2decRun(cfg, v, sink) },
		ref:   func() []byte { return mpeg2decRef(cfg) },
	}
}

// mv is one macroblock's synthetic motion vector.
type mv struct {
	dx      int
	halfpel bool
}

// mpeg2decInput builds the decoder's input: the reference frame, per-MB
// motion vectors, and the quantized coefficient stream a front-end parser
// would have produced (computed by reference-encoding a noisy successor
// frame).
func mpeg2decInput(cfg MPEG2DecConfig) (refP media.Picture, mvs []mv, stream []int16) {
	refP = media.NewPicture(cfg.W, cfg.H, 0, 0, cfg.Seed)
	ref := refP.Frame()
	cur := media.NewPicture(cfg.W, cfg.H, 2, 0, cfg.Seed).Noisy(4, cfg.Seed^0x5eed).Frame()

	r := media.NewRand(cfg.Seed ^ 0xabcd)
	recips := quantRecips(&mpeg2QuantTable)
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 {
			m := mv{dx: r.Intn(9) - 4, halfpel: r.Intn(2) == 1}
			// Keep the (possibly +1 for half-pel) window inside the frame.
			if x0+m.dx < 0 {
				m.dx = -x0
			}
			limit := cfg.W - 16 - x0
			if m.halfpel {
				limit--
			}
			if m.dx > limit {
				m.dx = limit
			}
			mvs = append(mvs, m)
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					var resid [64]int16
					for y := 0; y < 8; y++ {
						for x := 0; x < 8; x++ {
							p := mcPredict(ref, x0+8*bx+x, y0+8*by+y, m)
							c := int16(cur.Pix[(y0+8*by+y)*cfg.W+x0+8*bx+x])
							resid[y*8+x] = c - int16(p)
						}
					}
					f := RefFDCT(&resid)
					q := refQuant(&f, &recips)
					stream = append(stream, q[:]...)
				}
			}
		}
	}
	return refP, mvs, stream
}

// mcPredict is the half-pel prediction sample: avg rounding up, as pavgb.
func mcPredict(ref *media.Frame, x, y int, m mv) uint8 {
	a := ref.Pix[y*ref.Stride+x+m.dx]
	if !m.halfpel {
		return a
	}
	b := ref.Pix[y*ref.Stride+x+m.dx+1]
	return uint8((uint16(a) + uint16(b) + 1) >> 1)
}

func mpeg2decRun(cfg MPEG2DecConfig, v Variant, sink trace.Sink) []byte {
	ref, mvs, stream := mpeg2decInput(cfg)
	e := newEnv(v, sink)

	refA := e.input(ref)
	streamA := e.alloc(len(stream)*2, 64)
	e.write16(streamA, stream)
	dqA := e.alloc(blockBytes, 64)    // dequantized coefficients
	residA := e.alloc(blockBytes, 64) // IDCT output
	outA := e.alloc(cfg.W*cfg.H, 64)  // decoded frame

	e.zeroVec()
	d := e.prepareDCT()
	e.prepareQuant(&mpeg2QuantTable)

	var (
		rStream = isa.R(1)
		rDq     = isa.R(2)
		rRes    = isa.R(3)
		rPred   = isa.R(4)
		rOut    = isa.R(5)
	)
	e.setBase(rDq, dqA)
	e.setBase(rRes, residA)

	W := int64(cfg.W)
	mb := 0
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 {
			m := mvs[mb]
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					blk := (mb*4 + by*2 + bx) * 64
					e.setBase(rStream, streamA+uint64(blk*2))
					e.dequant(rStream, rDq)
					d.idct(rDq, rRes)
					e.setBase(rPred, refA+uint64((y0+8*by)*cfg.W+x0+8*bx+m.dx))
					e.setBase(rOut, outA+uint64((y0+8*by)*cfg.W+x0+8*bx))
					emitMCAdd(e, rPred, rRes, rOut, W, m.halfpel)
				}
			}
			mb++
		}
	}

	dg := newDigest()
	dg.mem(e.m.Mem, outA, cfg.W*cfg.H)
	return dg.sum()
}

// emitMCAdd emits prediction (optionally half-pel averaged), residual add
// with unsigned saturation, and the store of one reconstructed 8x8 block.
func emitMCAdd(e *env, rPred, rRes, rOut isa.Reg, W int64, halfpel bool) {
	b := e.b
	if e.v == MMX {
		for y := 0; y < 8; y++ {
			o := int64(y) * W
			b.MMXLoad(vB01, rPred, o, 8)
			if halfpel {
				b.MMXLoad(vB23, rPred, o+1, 8)
				b.U(isa.OpPAvgB, vB01, vB01, vB23)
			}
			b.U(isa.OpPUnpckLBW, vT0, vB01, vZero)
			b.U(isa.OpPUnpckHBW, vT1, vB01, vZero)
			b.MMXLoad(vB45, rRes, int64(y*16), 4)
			b.MMXLoad(vB67, rRes, int64(y*16+8), 4)
			b.U(isa.OpPAddW, vT0, vT0, vB45)
			b.U(isa.OpPAddW, vT1, vT1, vB67)
			b.U(isa.OpPackUSWB, vT0, vT0, vT1)
			b.MMXStore(rOut, o, vT0, 8)
		}
		return
	}
	switch {
	case e.v == MOM3D && halfpel:
		// The two half-pel streams (offsets 0 and +1) overlap: one dvload
		// of 16-byte rows serves both slices.
		b.DVLoad(isa.D(0), rPred, 0, W, 8, 2, false, 8)
		b.DVMov(vB01, isa.D(0), 1, 8)  // slice at 0, ptr -> 1
		b.DVMov(vB23, isa.D(0), -1, 8) // slice at 1, ptr -> 0
		b.M(isa.OpPAvgB, vB01, vB01, vB23, 8)
	case halfpel:
		b.MOMLoad(vB01, rPred, 0, W, 8, 8)
		b.MOMLoad(vB23, rPred, 1, W, 8, 8)
		b.M(isa.OpPAvgB, vB01, vB01, vB23, 8)
	default:
		b.MOMLoad(vB01, rPred, 0, W, 8, 8)
	}
	b.M(isa.OpPUnpckLBW, vT0, vB01, vZero, 8)
	b.M(isa.OpPUnpckHBW, vT1, vB01, vZero, 8)
	b.MOMLoad(vB45, rRes, 0, 16, 8, 4)
	b.MOMLoad(vB67, rRes, 8, 16, 8, 4)
	b.M(isa.OpPAddW, vT0, vT0, vB45, 8)
	b.M(isa.OpPAddW, vT1, vT1, vB67, 8)
	b.M(isa.OpPackUSWB, vT0, vT0, vT1, 8)
	b.MOMStore(rOut, 0, W, vT0, 8, 8)
}

func mpeg2decRef(cfg MPEG2DecConfig) []byte {
	refP, mvs, stream := mpeg2decInput(cfg)
	ref := refP.Frame()
	out := make([]byte, cfg.W*cfg.H)
	mb := 0
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 {
			m := mvs[mb]
			for by := 0; by < 2; by++ {
				for bx := 0; bx < 2; bx++ {
					blk := (mb*4 + by*2 + bx) * 64
					var q [64]int16
					copy(q[:], stream[blk:blk+64])
					dq := refDequant(&q, &mpeg2QuantTable)
					resid := RefIDCT(&dq)
					for y := 0; y < 8; y++ {
						for x := 0; x < 8; x++ {
							p := mcPredict(ref, x0+8*bx+x, y0+8*by+y, m)
							s := int32(p) + int32(resid[y*8+x])
							if s < 0 {
								s = 0
							}
							if s > 255 {
								s = 255
							}
							out[(y0+8*by+y)*cfg.W+x0+8*bx+x] = uint8(s)
						}
					}
				}
			}
			mb++
		}
	}
	dg := newDigest()
	dg.bytes(out)
	return dg.sum()
}
