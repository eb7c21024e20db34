package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// JPEGDecConfig sizes the jpegdecode workload: per-block dequantization,
// inverse DCT, level unshift, and a horizontal 2x upsampling pass over the
// reconstructed image. The memory streams here are wide and consecutive
// (the coefficient stream and the upsampling rows), which is why the paper
// reports the longest second-dimension vector lengths (15.9) and no
// exploitable third dimension for this benchmark: the MOM3D variant is
// identical to MOM.
type JPEGDecConfig struct {
	W, H int    // image dimensions (W a multiple of 8, H of 8)
	Seed uint64 // content seed
}

// DefaultJPEGDecConfig is the experiment-scale workload.
func DefaultJPEGDecConfig() JPEGDecConfig {
	return JPEGDecConfig{W: 128, H: 64, Seed: 0x0dec}
}

// SmallJPEGDecConfig is a fast configuration for unit tests.
func SmallJPEGDecConfig() JPEGDecConfig {
	return JPEGDecConfig{W: 64, H: 16, Seed: 0x0dec}
}

// JPEGDecode builds the jpegdecode benchmark.
func JPEGDecode(cfg JPEGDecConfig) Benchmark {
	return Benchmark{
		Name:  "jpegdecode",
		Has3D: false, // no suitable 3D memory patterns (paper §5.1)
		run:   func(v Variant, sink trace.Sink) []byte { return jpegdecRun(cfg, v, sink) },
		ref:   func() []byte { return jpegdecRef(cfg) },
	}
}

// jpegdecInput reference-encodes a synthetic image into the quantized
// coefficient stream the decoder consumes.
func jpegdecInput(cfg JPEGDecConfig) []int16 {
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
	return stream
}

func jpegdecRun(cfg JPEGDecConfig, v Variant, sink trace.Sink) []byte {
	if v == MOM3D {
		v = MOM // no 3D patterns: the MOM3D build is the plain MOM code
	}
	stream := jpegdecInput(cfg)
	e := newEnv(v, sink)

	streamA := e.alloc(len(stream)*2, 64)
	e.write16(streamA, stream)
	dqA := e.alloc(blockBytes, 64)
	pixA := e.alloc(blockBytes, 64) // IDCT output (16-bit)
	imgA := e.alloc(cfg.W*cfg.H, 64)
	e.alloc(64, 64) // guard gap: the upsample +1 stream reads one byte past
	outA := e.alloc(2*cfg.W*cfg.H, 64)

	e.zeroVec()
	d := e.prepareDCT()
	e.prepareQuant(&jpegQuantTable)

	var (
		rStream = isa.R(1)
		rDq     = isa.R(2)
		rPix    = isa.R(3)
		rImg    = isa.R(4)
		rOut    = isa.R(5)
		rBias   = isa.R(6)
	)
	e.setBase(rDq, dqA)
	e.setBase(rPix, pixA)
	e.b.MovImm(rBias, 128)

	W := int64(cfg.W)
	blk := 0
	for y0 := 0; y0+8 <= cfg.H; y0 += 8 {
		for x0 := 0; x0 < cfg.W; x0 += 8 {
			e.setBase(rStream, streamA+uint64(blk*blockBytes))
			e.dequant(rStream, rDq)
			d.idct(rDq, rPix)
			e.setBase(rImg, imgA+uint64(y0*cfg.W+x0))
			e.broadcast(8).splat(vB67, rBias)
			e.rows(8, func(r row) {
				r.ld(vT0, rPix, 0, 16, 4)
				r.ld(vT1, rPix, 8, 16, 4)
				r.op(isa.OpPAddW, vT0, vT0, vB67)
				r.op(isa.OpPAddW, vT1, vT1, vB67)
				r.op(isa.OpPackUSWB, vT0, vT0, vT1)
				r.st(rImg, 0, W, vT0, 8)
			})
			blk++
		}
	}

	// Horizontal 2x upsampling over the reconstructed image: wide
	// consecutive streams (out[2i] = in[i], out[2i+1] = avg(in[i], in[i+1])).
	n := cfg.W * cfg.H
	e.setBase(rImg, imgA)
	e.setBase(rOut, outA)
	e.rows(n/8, func(r row) {
		r.ld(vB01, rImg, 0, 8, 8)
		r.ld(vB23, rImg, 1, 8, 8)
		r.op(isa.OpPAvgB, vB23, vB01, vB23)
		r.op(isa.OpPUnpckLBW, vT0, vB01, vB23)
		r.op(isa.OpPUnpckHBW, vT1, vB01, vB23)
		r.st(rOut, 0, 16, vT0, 8)
		r.st(rOut, 8, 16, vT1, 8)
	})

	dg := newDigest()
	dg.mem(e.m.Mem, imgA, n)
	dg.mem(e.m.Mem, outA, 2*n)
	return dg.sum()
}

func jpegdecRef(cfg JPEGDecConfig) []byte {
	stream := jpegdecInput(cfg)
	img := make([]byte, cfg.W*cfg.H)
	blk := 0
	for y0 := 0; y0+8 <= cfg.H; y0 += 8 {
		for x0 := 0; x0 < cfg.W; x0 += 8 {
			var q [64]int16
			copy(q[:], stream[blk*64:blk*64+64])
			dq := refDequant(&q, &jpegQuantTable)
			pix := RefIDCT(&dq)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					s := int32(pix[y*8+x]) + 128
					if s < 0 {
						s = 0
					}
					if s > 255 {
						s = 255
					}
					img[(y0+y)*cfg.W+x0+x] = uint8(s)
				}
			}
			blk++
		}
	}
	n := cfg.W * cfg.H
	out := make([]byte, 2*n)
	at := func(i int) uint8 {
		if i >= n {
			return 0 // guard gap reads as zero, as in the traced run
		}
		return img[i]
	}
	for i := 0; i < n; i++ {
		out[2*i] = img[i]
		out[2*i+1] = uint8((uint16(img[i]) + uint16(at(i+1)) + 1) >> 1)
	}
	dg := newDigest()
	dg.bytes(img)
	dg.bytes(out)
	return dg.sum()
}
