package kernels

import (
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/trace"
)

// GSMEncConfig sizes the gsmencode workload: per-frame autocorrelation and
// per-subframe long-term-prediction (LTP) lag search, the benchmark where
// successive 40-sample correlation windows overlap by 39 samples — the
// paper's strongest case for third-dimension register reuse (Table 1
// reports an average third-dimension length of 7.7 for gsm).
type GSMEncConfig struct {
	Frames int    // 160-sample speech frames to encode
	Seed   uint64 // content seed
}

// LTP search constants (GSM 06.10 long-term predictor).
const (
	ltpMinLag   = 40
	ltpMaxLag   = 120
	subframeLen = 40
	frameLen    = 160
	acfMaxLag   = 8
	acfSpan     = 152 // correlation span, a multiple of 8 samples
)

// DefaultGSMEncConfig is the experiment-scale workload.
func DefaultGSMEncConfig() GSMEncConfig {
	return GSMEncConfig{Frames: 24, Seed: 0x95195}
}

// SmallGSMEncConfig is a fast configuration for unit tests.
func SmallGSMEncConfig() GSMEncConfig {
	return GSMEncConfig{Frames: 2, Seed: 0x95195}
}

// GSMEncode builds the gsmencode benchmark.
func GSMEncode(cfg GSMEncConfig) Benchmark {
	return Benchmark{
		Name:  "gsmencode",
		Has3D: true,
		run:   func(v Variant, sink trace.Sink) []byte { return gsmencRun(cfg, v, sink) },
		ref:   func() []byte { return gsmencRef(cfg) },
	}
}

// gsmencSamples returns the speech input: one frame of history (so every
// LTP window is in range) plus the frames to encode.
func gsmencSamples(cfg GSMEncConfig) []int16 {
	return media.Speech(frameLen*(cfg.Frames+1), cfg.Seed)
}

func gsmencRun(cfg GSMEncConfig, v Variant, sink trace.Sink) []byte {
	raw := gsmencSamples(cfg)
	e := newEnv(v, sink)

	n := len(raw)
	rawA := e.alloc(2*n, 64)
	e.write16(rawA, raw)
	scaledA := e.alloc(2*n, 64)

	var (
		rRaw    = isa.R(1)
		rScaled = isa.R(2)
		rD      = isa.R(3)
		rDp     = isa.R(4)
		rCorr   = isa.R(5)
		rMax    = isa.R(6)
		rLag    = isa.R(7)
		rCond   = isa.R(8)
		rA      = isa.R(9)
	)
	b := e.b
	e.setBase(rRaw, rawA)
	e.setBase(rScaled, scaledA)

	// Preprocessing: scale samples down 2 bits so 40-sample dot products
	// fit 32-bit μSIMD accumulation (the GSM coder's own scaling stage).
	e.rows(n/4, func(r row) { // 4 samples per 64-bit word; n is a multiple of 4
		r.ld(vT0, rRaw, 0, 8, 4)
		r.opi(isa.OpPSraW, vT0, vT0, 2)
		r.st(rScaled, 0, 8, vT0, 4)
	})

	dg := newDigest()
	for f := 0; f < cfg.Frames; f++ {
		fb := frameLen + f*frameLen // absolute sample index of the frame

		// Autocorrelation acf[k] = Σ_{i<acfSpan} s[fb+i]*s[fb+i+k].
		e.setBase(rA, scaledA+uint64(2*fb))
		for k := 0; k <= acfMaxLag; k++ {
			b.AccClr(isa.A(1))
			if v == MMX {
				b.U(isa.OpPXor, vT0, vT0, vT0)
				for q := 0; q < acfSpan/4; q++ {
					b.MMXLoad(vB01, rA, int64(8*q), 4)
					b.MMXLoad(vB23, rA, int64(8*q+2*k), 4)
					b.U(isa.OpPMAddWD, vB01, vB01, vB23)
					b.U(isa.OpPAddD, vT0, vT0, vB01)
				}
				gsmencExtractDot(e, rCorr, vT0)
			} else {
				for q := 0; q < acfSpan/4; q += 16 {
					vl := acfSpan/4 - q
					if vl > 16 {
						vl = 16
					}
					b.MOMLoad(vB01, rA, int64(8*q), 8, vl, 4)
					b.MOMLoad(vB23, rA, int64(8*q+2*k), 8, vl, 4)
					b.VMacAcc(isa.A(1), vB01, vB23, vl)
				}
				b.AccMov(rCorr, isa.A(1))
			}
			dg.u64(uint64(e.m.IntVal(rCorr)))
		}

		// LTP lag search per subframe, lags descending 120..40.
		for sf := 0; sf < 4; sf++ {
			sb := fb + sf*subframeLen
			e.setBase(rD, scaledA+uint64(2*sb))
			b.MovImm(rMax, -(1 << 40))
			b.MovImm(rLag, ltpMaxLag)

			switch v {
			case MMX:
				// d resident in v16..v25.
				for w := 0; w < 10; w++ {
					b.MMXLoad(isa.V(16+w), rD, int64(8*w), 4)
				}
				e.setBase(rDp, scaledA+uint64(2*(sb-ltpMaxLag)))
				for lag := ltpMaxLag; lag >= ltpMinLag; lag-- {
					off := int64(2 * (ltpMaxLag - lag))
					b.U(isa.OpPXor, vT0, vT0, vT0)
					for w := 0; w < 10; w++ {
						b.MMXLoad(vT1, rDp, off+int64(8*w), 4)
						b.U(isa.OpPMAddWD, vT1, vT1, isa.V(16+w))
						b.U(isa.OpPAddD, vT0, vT0, vT1)
					}
					gsmencExtractDot(e, rCorr, vT0)
					gsmencUpdateMax(e, rCorr, rMax, rLag, rCond, lag)
				}
			case MOM:
				b.MOMLoad(vW0, rD, 0, 8, 10, 4)
				e.setBase(rDp, scaledA+uint64(2*(sb-ltpMaxLag)))
				for lag := ltpMaxLag; lag >= ltpMinLag; lag-- {
					off := int64(2 * (ltpMaxLag - lag))
					b.MOMLoad(vB01, rDp, off, 8, 10, 4)
					b.AccClr(isa.A(0))
					b.VMacAcc(isa.A(0), vW0, vB01, 10)
					b.AccMov(rCorr, isa.A(0))
					gsmencUpdateMax(e, rCorr, rMax, rLag, rCond, lag)
				}
			case MOM3D:
				b.MOMLoad(vW0, rD, 0, 8, 10, 4)
				// Lag groups: one dvload of 40-byte-wide overlapped
				// elements serves every lag whose window starts within
				// the first 32 bytes (16 lags at 2 bytes per lag). The
				// group is sized so the next group's dvload dispatches
				// within the 128-entry window, preserving the prefetch
				// effect under long L2 latencies (§6.2).
				lag := ltpMaxLag
				for lag >= ltpMinLag {
					gLo := lag - 15
					if gLo < ltpMinLag {
						gLo = ltpMinLag
					}
					e.setBase(rDp, scaledA+uint64(2*(sb-lag)))
					b.DVLoad(isa.D(0), rDp, 0, 8, 10, 5, false, 4)
					for l := lag; l >= gLo; l-- {
						b.DVMov(vB01, isa.D(0), 2, 10)
						b.AccClr(isa.A(0))
						b.VMacAcc(isa.A(0), vW0, vB01, 10)
						b.AccMov(rCorr, isa.A(0))
						gsmencUpdateMax(e, rCorr, rMax, rLag, rCond, l)
					}
					lag = gLo - 1
				}
			}
			dg.u32(uint32(int32(e.m.IntVal(rLag))))
			dg.u64(uint64(e.m.IntVal(rMax)))
		}
	}
	return dg.sum()
}

// gsmencExtractDot folds the two dword partial sums of vAcc and moves the
// sign-extended 32-bit total into rDst (the MMX reduction tail).
func gsmencExtractDot(e *env, rDst isa.Reg, vAcc isa.Reg) {
	b := e.b
	b.UImm(isa.OpPSrlQ, vT1, vAcc, 32)
	b.U(isa.OpPAddD, vT1, vAcc, vT1)
	b.MovV2I(rDst, vT1, 0)
	b.Shl(rDst, rDst, 32)
	b.Sra(rDst, rDst, 32)
}

// gsmencUpdateMax emits the running-maximum update of the lag search.
func gsmencUpdateMax(e *env, rCorr, rMax, rLag, rCond isa.Reg, lag int) {
	e.b.Slt(rCond, rMax, rCorr)
	if e.b.BrNZ(rCond) {
		e.b.Mov(rMax, rCorr)
		e.b.MovImm(rLag, int64(lag))
	}
}

func gsmencRef(cfg GSMEncConfig) []byte {
	raw := gsmencSamples(cfg)
	scaled := make([]int16, len(raw))
	for i, s := range raw {
		scaled[i] = s >> 2
	}
	dot := func(a, b []int16, n int) int64 {
		var sum int64
		for i := 0; i < n; i++ {
			sum += int64(a[i]) * int64(b[i])
		}
		return sum
	}
	dg := newDigest()
	for f := 0; f < cfg.Frames; f++ {
		fb := frameLen + f*frameLen
		for k := 0; k <= acfMaxLag; k++ {
			dg.u64(uint64(dot(scaled[fb:], scaled[fb+k:], acfSpan)))
		}
		for sf := 0; sf < 4; sf++ {
			sb := fb + sf*subframeLen
			max, best := int64(-(1 << 40)), ltpMaxLag
			for lag := ltpMaxLag; lag >= ltpMinLag; lag-- {
				c := dot(scaled[sb:], scaled[sb-lag:], subframeLen)
				if max < c {
					max, best = c, lag
				}
			}
			dg.u32(uint32(int32(best)))
			dg.u64(uint64(max))
		}
	}
	return dg.sum()
}
