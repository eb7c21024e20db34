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
		for x0 := 0; x0 < cfg.W; x0 += 8 {
			// How the block's pixel rows reach vB01: one MOM load, a
			// slice of the 3D register, or under MMX, where a register
			// holds one row, a load per row inside the level shift.
			loadRows := false
			switch v {
			case MOM3D:
				if x0%128 == 0 {
					// One dvload per 128-byte span of the stripe covers
					// 16 horizontally adjacent blocks' rows.
					e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
					b.DVLoad(isa.D(0), rImg, 0, W, 8, 16, false, 8)
				}
				b.DVMov(vB01, isa.D(0), 8, 8) // this block's rows, ptr += 8
			case MOM:
				e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
				b.MOMLoad(vB01, rImg, 0, W, 8, 8)
			case MMX:
				e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
				loadRows = true
			}
			// Level shift, FDCT and quantization.
			e.broadcast(8).splat(vB67, rBias)
			e.rows(8, func(r row) {
				if loadRows {
					r.ld(vB01, rImg, 0, W, 8)
				}
				r.op(isa.OpPUnpckLBW, vT0, vB01, vZero)
				r.op(isa.OpPUnpckHBW, vT1, vB01, vZero)
				r.op(isa.OpPSubW, vT0, vT0, vB67)
				r.op(isa.OpPSubW, vT1, vT1, vB67)
				r.st(rShift, 0, 16, vT0, 4)
				r.st(rShift, 8, 16, vT1, 4)
			})
			d.fdct(rShift, rCoef)
			e.setBase(rOut, outA+uint64(blk*blockBytes))
			e.quant(rCoef, rOut)
			blk++
		}
	}

	dg := newDigest()
	dg.mem(e.m.Mem, outA, nBlocks*blockBytes)
	return dg.sum()
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
