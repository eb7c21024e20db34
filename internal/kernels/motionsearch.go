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

func motionSearchFrames(cfg MotionSearchConfig) (cur, ref *media.Frame) {
	fr := media.VideoSequence(cfg.W, cfg.H, 2, 5, 1, cfg.Seed)
	ref, cur = fr[0], fr[1]
	media.AddNoise(cur, 4, cfg.Seed^0x5eed)
	return cur, ref
}

// motionSearchRange clips the candidate displacement window [lo, hi]
// for a macroblock at x0 so every candidate block stays in the frame.
func motionSearchRange(cfg MotionSearchConfig, x0 int) (lo, hi int) {
	lo = -cfg.Cands / 2
	hi = lo + cfg.Cands - 1
	if lo < -x0 {
		lo = -x0
	}
	if hi > cfg.W-16-x0 {
		hi = cfg.W - 16 - x0
	}
	return lo, hi
}

func motionSearchRun(cfg MotionSearchConfig, v Variant, sink trace.Sink) []byte {
	cur, ref := motionSearchFrames(cfg)
	e := newEnv(v, sink)

	curA := e.alloc(len(cur.Pix), 64)
	refA := e.alloc(len(ref.Pix), 64)
	reconA := e.alloc(cfg.W*cfg.H, 64)
	e.m.Mem.Load(curA, cur.Pix)
	e.m.Mem.Load(refA, ref.Pix)

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
			lo, hi := motionSearchRange(cfg, x0)
			e.setBase(rCur, curA+uint64(y0*cfg.W+x0))
			e.setBase(rRef, refA+uint64(y0*cfg.W+x0+lo))
			b.MovImm(rMin, 1<<30)
			b.MovImm(rPos, int64(lo))

			if v != MMX {
				b.MOMLoad(vW0, rCur, 0, W, 16, 8)
				b.MOMLoad(vW1, rCur, 8, W, 16, 8)
			}
			switch v {
			case MMX:
				for dx := lo; dx <= hi; dx++ {
					i := int64(dx - lo)
					b.U(isa.OpPXor, vT0, vT0, vT0)
					for y := 0; y < 16; y++ {
						o := int64(y) * W
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
					motionSearchUpdateMin(e, rSad, rMin, rPos, rCond, dx)
				}
			case MOM:
				for dx := lo; dx <= hi; dx++ {
					i := int64(dx - lo)
					b.MOMLoad(vB01, rRef, i, W, 16, 8)
					b.MOMLoad(vB23, rRef, i+8, W, 16, 8)
					b.AccClr(isa.A(0))
					b.VSadAcc(isa.A(0), vW0, vB01, 16)
					b.VSadAcc(isa.A(0), vW1, vB23, 16)
					b.AccMov(rSad, isa.A(0))
					motionSearchUpdateMin(e, rSad, rMin, rPos, rCond, dx)
				}
			case MOM3D:
				// One dvload of 24-byte-wide overlapped elements covers
				// the whole horizontal window: candidate dx slices the
				// 3D register at byte offset dx-lo (≤ 7), and the two
				// 8-byte dvmov slices of each candidate reach at most
				// byte 7+16 = 23.
				b.DVLoad(isa.D(0), rRef, 0, W, 16, 3, false, 8)
				for dx := lo; dx <= hi; dx++ {
					b.DVMov(vB01, isa.D(0), 8, 16)  // slice at p, ptr -> p+8
					b.DVMov(vB23, isa.D(0), -7, 16) // slice at p+8, ptr -> p+1
					b.AccClr(isa.A(0))
					b.VSadAcc(isa.A(0), vW0, vB01, 16)
					b.VSadAcc(isa.A(0), vW1, vB23, 16)
					b.AccMov(rSad, isa.A(0))
					motionSearchUpdateMin(e, rSad, rMin, rPos, rCond, dx)
				}
			}

			// Motion compensation: copy the winning candidate block into
			// the reconstruction frame — the store stream that pushes
			// dirty lines (and later their write-backs) through the
			// memory system.
			best := int(e.m.IntVal(rPos))
			e.setBase(rRefB, refA+uint64(y0*cfg.W+x0+best))
			e.setBase(rRecon, reconA+uint64(y0*cfg.W+x0))
			if v == MMX {
				for y := 0; y < 16; y++ {
					o := int64(y) * W
					b.MMXLoad(vT0, rRefB, o, 8)
					b.MMXLoad(vT1, rRefB, o+8, 8)
					b.MMXStore(rRecon, o, vT0, 8)
					b.MMXStore(rRecon, o+8, vT1, 8)
				}
			} else {
				b.MOMLoad(vT0, rRefB, 0, W, 16, 8)
				b.MOMLoad(vT1, rRefB, 8, W, 16, 8)
				b.MOMStore(rRecon, 0, W, vT0, 16, 8)
				b.MOMStore(rRecon, 8, W, vT1, 16, 8)
			}

			dg.u32(uint32(int32(e.m.IntVal(rMin))))
			dg.u32(uint32(int32(best)))
		}
	}
	dg.mem(e.m.Mem, reconA, cfg.W*cfg.H)
	return dg.sum()
}

// motionSearchUpdateMin emits the running-minimum update of the
// full-search kernel.
func motionSearchUpdateMin(e *env, rSad, rMin, rPos, rCond isa.Reg, dx int) {
	e.b.Slt(rCond, rSad, rMin)
	if e.b.BrNZ(rCond) {
		e.b.Mov(rMin, rSad)
		e.b.MovImm(rPos, int64(dx))
	}
}

func motionSearchRef(cfg MotionSearchConfig) []byte {
	cur, ref := motionSearchFrames(cfg)
	recon := make([]byte, cfg.W*cfg.H)
	dg := newDigest()
	for y0 := 0; y0+16 <= cfg.H; y0 += 16 * cfg.Step {
		for x0 := 0; x0+16 <= cfg.W; x0 += 16 * cfg.Step {
			lo, hi := motionSearchRange(cfg, x0)
			min, pos := int32(1<<30), lo
			for dx := lo; dx <= hi; dx++ {
				var sad int32
				for y := 0; y < 16; y++ {
					for x := 0; x < 16; x++ {
						a := int32(cur.Pix[(y0+y)*cfg.W+x0+x])
						b := int32(ref.Pix[(y0+y)*cfg.W+x0+dx+x])
						if a > b {
							sad += a - b
						} else {
							sad += b - a
						}
					}
				}
				if sad < min {
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
