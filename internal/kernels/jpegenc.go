package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// JPEGEncConfig sizes the jpegencode workload: per-8x8-block level shift,
// forward DCT and quantization of a grayscale image. The third memory
// dimension is the row of horizontally adjacent blocks: one 128-byte-wide
// dvload captures up to 16 blocks' pixel rows at once (the paper's Table 1
// reports a maximum third-dimension length of 16 for jpeg encode).
type JPEGEncConfig struct {
	W, H int    // image dimensions (W a multiple of 128, H of 8)
	Seed uint64 // content seed
}

// DefaultJPEGEncConfig is the experiment-scale workload.
func DefaultJPEGEncConfig() JPEGEncConfig {
	return JPEGEncConfig{W: 128, H: 64, Seed: 0x1baba}
}

// SmallJPEGEncConfig is a fast configuration for unit tests.
func SmallJPEGEncConfig() JPEGEncConfig {
	return JPEGEncConfig{W: 128, H: 16, Seed: 0x1baba}
}

// JPEGEncode builds the jpegencode benchmark.
func JPEGEncode(cfg JPEGEncConfig) Benchmark {
	return Benchmark{
		Name:  "jpegencode",
		Has3D: true,
		run:   func(v Variant, sink trace.Sink) []byte { return jpegencRun(cfg, v, sink) },
		ref:   func() []byte { return jpegencRef(cfg) },
	}
}

func jpegencRun(cfg JPEGEncConfig, v Variant, sink trace.Sink) []byte {
	e := newEnv(v, sink)

	imgA := e.input(media.NewPicture(cfg.W, cfg.H, 0, 0, cfg.Seed))
	shiftA := e.alloc(blockBytes, 64) // level-shifted 16-bit block
	coefA := e.alloc(blockBytes, 64)
	nBlocks := (cfg.W / 8) * (cfg.H / 8)
	outA := e.alloc(nBlocks*blockBytes, 64)

	e.zeroVec()
	d := e.prepareDCT()
	e.prepareQuant(&jpegQuantTable)

	var (
		rImg   = isa.R(1)
		rShift = isa.R(2)
		rCoef  = isa.R(3)
		rOut   = isa.R(4)
		rBias  = isa.R(5)
	)
	e.setBase(rShift, shiftA)
	e.setBase(rCoef, coefA)
	e.b.MovImm(rBias, 128)

	W := int64(cfg.W)
	b := e.b
	blk := 0
	for y0 := 0; y0+8 <= cfg.H; y0 += 8 {
		if v == MOM3D {
			// One dvload per 128-byte span of the stripe covers 16
			// horizontally adjacent blocks' rows.
			for x0 := 0; x0 < cfg.W; x0 += 128 {
				e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
				b.DVLoad(isa.D(0), rImg, 0, W, 8, 16, false, 8)
				span := 16
				if cfg.W-x0 < 128 {
					span = (cfg.W - x0) / 8
				}
				for s := 0; s < span; s++ {
					b.DVMov(vB01, isa.D(0), 8, 8) // block s's rows, ptr += 8
					jpegencBlockBody(e, d, rShift, rCoef, rOut, rBias,
						outA+uint64(blk*blockBytes))
					blk++
				}
			}
			continue
		}
		for x0 := 0; x0 < cfg.W; x0 += 8 {
			e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
			if v == MOM {
				b.MOMLoad(vB01, rImg, 0, W, 8, 8)
				jpegencBlockBody(e, d, rShift, rCoef, rOut, rBias,
					outA+uint64(blk*blockBytes))
			} else {
				// MMX: per-row level shift straight from the image.
				b.SplatW(vB67, rBias)
				for y := 0; y < 8; y++ {
					b.MMXLoad(vB01, rImg, int64(y)*W, 8)
					b.U(isa.OpPUnpckLBW, vT0, vB01, vZero)
					b.U(isa.OpPUnpckHBW, vT1, vB01, vZero)
					b.U(isa.OpPSubW, vT0, vT0, vB67)
					b.U(isa.OpPSubW, vT1, vT1, vB67)
					b.MMXStore(rShift, int64(y*16), vT0, 4)
					b.MMXStore(rShift, int64(y*16+8), vT1, 4)
				}
				d.fdct(rShift, rCoef)
				e.setBase(rOut, outA+uint64(blk*blockBytes))
				e.quant(rCoef, rOut)
			}
			blk++
		}
	}

	dg := newDigest()
	dg.mem(e.m.Mem, outA, nBlocks*blockBytes)
	return dg.sum()
}

// jpegencBlockBody emits level shift, FDCT and quantization for the MOM
// variants, starting from the block's pixel rows already in vB01.
func jpegencBlockBody(e *env, d *dctGen, rShift, rCoef, rOut, rBias isa.Reg, outAddr uint64) {
	b := e.b
	b.MSplatW(vB67, rBias, 8)
	b.M(isa.OpPUnpckLBW, vT0, vB01, vZero, 8)
	b.M(isa.OpPUnpckHBW, vT1, vB01, vZero, 8)
	b.M(isa.OpPSubW, vT0, vT0, vB67, 8)
	b.M(isa.OpPSubW, vT1, vT1, vB67, 8)
	b.MOMStore(rShift, 0, 16, vT0, 8, 4)
	b.MOMStore(rShift, 8, 16, vT1, 8, 4)
	d.fdct(rShift, rCoef)
	e.setBase(rOut, outAddr)
	e.quant(rCoef, rOut)
}

func jpegencRef(cfg JPEGEncConfig) []byte {
	img := media.NewPicture(cfg.W, cfg.H, 0, 0, cfg.Seed).Frame()
	recips := quantRecips(&jpegQuantTable)
	var stream []int16
	for y0 := 0; y0+8 <= cfg.H; y0 += 8 {
		for x0 := 0; x0 < cfg.W; x0 += 8 {
			var blk [64]int16
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					blk[y*8+x] = int16(img.Pix[(y0+y)*cfg.W+x0+x]) - 128
				}
			}
			f := RefFDCT(&blk)
			q := refQuant(&f, &recips)
			stream = append(stream, q[:]...)
		}
	}
	dg := newDigest()
	dg.u16s(stream)
	return dg.sum()
}
