package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// MotionSearchConfig sizes the motionsearch workload: horizontal
// full-search motion estimation over an HD-scale luminance frame pair,
// followed by a motion-compensated copy of every winning candidate into
// a reconstruction frame. Unlike the five Mediabench-derived
// benchmarks, whose scaled-down inputs live comfortably inside the 2MB
// L2, the default configuration streams three ~2MB frames (current,
// reference, reconstruction), so the kernel actually reaches main
// memory: it is the workload that exercises DRAM channels, write
// queues and the MSHR file at full size.
type MotionSearchConfig struct {
	W, H  int    // luminance frame dimensions (multiples of 16)
	Cands int    // horizontal search candidates per macroblock (≤ 8)
	Step  int    // macroblock sampling stride (1 = every macroblock)
	Seed  uint64 // content seed
}

// DefaultMotionSearchConfig is the full-size HD workload: 1920x1088
// frames, every third macroblock in each dimension searched. The
// sampled blocks still sweep the whole frame pair (the reads touch
// nearly every cache line of the rows they cross), so the memory
// system sees an HD stream while the trace stays simulation-sized.
func DefaultMotionSearchConfig() MotionSearchConfig {
	return MotionSearchConfig{W: 1920, H: 1088, Cands: 8, Step: 3, Seed: 0x5EA4C}
}

// SmallMotionSearchConfig is a fast configuration for unit tests.
func SmallMotionSearchConfig() MotionSearchConfig {
	return MotionSearchConfig{W: 128, H: 32, Cands: 8, Step: 1, Seed: 0xBEEF}
}

// MotionSearch builds the motionsearch benchmark.
func MotionSearch(cfg MotionSearchConfig) Benchmark {
	return Benchmark{
		Name:  "motionsearch",
		Has3D: true,
		run:   func(v Variant, sink trace.Sink) []byte { return motionSearchRun(cfg, v, sink) },
		ref:   func() []byte { return motionSearchRef(cfg) },
	}
}

// motionSearchPictures is the frame pair: the reference frame and its
// successor, the content moved by (-5, -1) and noise added.
func motionSearchPictures(cfg MotionSearchConfig) (cur, ref media.Picture) {
	ref = media.NewPicture(cfg.W, cfg.H, 0, 0, cfg.Seed)
	cur = media.NewPicture(cfg.W, cfg.H, 5, 1, cfg.Seed).Noisy(4, cfg.Seed^0x5eed)
	return cur, ref
}

func motionSearchRun(cfg MotionSearchConfig, v Variant, sink trace.Sink) []byte {
	cur, ref := motionSearchPictures(cfg)
	e := newEnv(v, sink)

	curA := e.input(cur)
	refA := e.input(ref)
	reconA := e.alloc(cfg.W*cfg.H, 64)

	var (
		rCur   = isa.R(1)
		rRef   = isa.R(2)
		rRecon = isa.R(3)
		rRefB  = isa.R(4)
		rSad   = isa.R(6)
		rMin   = isa.R(7)
		rPos   = isa.R(8)
		rCond  = isa.R(9)
	)
	b := e.b
	W := int64(cfg.W)

	dg := newDigest()
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 * cfg.Step {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 * cfg.Step {
			lo, hi := searchRange(cfg.Cands, cfg.W, x0)
			e.setBase(rCur, curA+uint64(y0*cfg.W+x0))
			e.setBase(rRef, refA+uint64(y0*cfg.W+x0+lo))
			b.MovImm(rMin, 1<<30)
			b.MovImm(rPos, int64(lo))
			loadSearchBlock(e, rCur, W)
			// A 3-word (24-byte) dvload covers the hi-lo+16 bytes a
			// row of up to 8 candidates spans.
			sadRow(e, rCur, rRef, rSad, W, lo, hi, 3, func(dx int) {
				if newMin(e, rSad, rMin, rCond) {
					b.MovImm(rPos, int64(dx))
				}
			})

			// Motion compensation: copy the winning candidate block into
			// the reconstruction frame — the store stream that pushes
			// dirty lines (and later their write-backs) through the
			// memory system.
			best := int(e.m.IntVal(rPos))
			e.setBase(rRefB, refA+uint64(y0*cfg.W+x0+best))
			e.setBase(rRecon, reconA+uint64(y0*cfg.W+x0))
			e.rows(16, func(r row) {
				r.ld(vT0, rRefB, 0, W, 8)
				r.ld(vT1, rRefB, 8, W, 8)
				r.st(rRecon, 0, W, vT0, 8)
				r.st(rRecon, 8, W, vT1, 8)
			})

			dg.u32(uint32(int32(e.m.IntVal(rMin))))
			dg.u32(uint32(int32(best)))
		}
	}
	dg.mem(e.m.Mem, reconA, cfg.W*cfg.H)
	return dg.sum()
}

func motionSearchRef(cfg MotionSearchConfig) []byte {
	curP, refP := motionSearchPictures(cfg)
	cur, ref := curP.Frame(), refP.Frame()
	recon := make([]byte, cfg.W*cfg.H)
	dg := newDigest()
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 * cfg.Step {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 * cfg.Step {
			lo, hi := searchRange(cfg.Cands, cfg.W, x0)
			min, pos := int32(1<<30), lo
			for dx := lo; dx <= hi; dx++ {
				if sad := refSAD(cur, ref, x0, y0, dx, 0); sad < min {
					min, pos = sad, dx
				}
			}
			for y := 0; y < 16; y++ {
				copy(recon[(y0+y)*cfg.W+x0:(y0+y)*cfg.W+x0+16],
					ref.Pix[(y0+y)*cfg.W+x0+pos:(y0+y)*cfg.W+x0+pos+16])
			}
			dg.u32(uint32(min))
			dg.u32(uint32(int32(pos)))
		}
	}
	dg.bytes(recon)
	return dg.sum()
}
