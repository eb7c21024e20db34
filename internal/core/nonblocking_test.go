package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// equivBenches is the full benchmark suite at test scale: the five
// paper kernels plus the HD motionsearch stream.
func equivBenches() []kernels.Benchmark {
	return []kernels.Benchmark{
		JPEGEnc(), JPEGDec(), MPEG2Dec(), MPEG2Enc(), GSMEnc(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	}
}

func JPEGEnc() kernels.Benchmark  { return kernels.JPEGEncode(kernels.SmallJPEGEncConfig()) }
func JPEGDec() kernels.Benchmark  { return kernels.JPEGDecode(kernels.SmallJPEGDecConfig()) }
func MPEG2Dec() kernels.Benchmark { return kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()) }
func MPEG2Enc() kernels.Benchmark { return kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()) }
func GSMEnc() kernels.Benchmark   { return kernels.GSMEncode(kernels.SmallGSMEncConfig()) }

// simBench runs one benchmark trace through one memory configuration.
func simBench(t *testing.T, tr *trace.Trace, v kernels.Variant, kind MemKind, spec string, mshrs int) *Stats {
	st, _ := simBenchPF(t, tr, v, kind, spec, mshrs, 0, 0)
	return st
}

// simBenchPF is simBench with a stream prefetcher configured; it also
// returns the memory system for stat inspection.
func simBenchPF(t *testing.T, tr *trace.Trace, v kernels.Variant, kind MemKind, spec string, mshrs, pfStreams, pfDegree int) (*Stats, *MemSystem) {
	t.Helper()
	cfg := MOMCore()
	if v == kernels.MMX {
		cfg = MMXCore()
	}
	var backend dram.Backend
	if spec != "" {
		b, _, err := dram.ParseSpecFull(spec, 100)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		backend = b
	}
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: backend, MSHRs: mshrs,
		PFStreams: pfStreams, PFDegree: pfDegree}
	ms := NewMemSystem(kind, tim, cfg.Lanes, v == kernels.MMX && kind != MemIdeal)
	return simulate(cfg, ms, tr.Insts), ms
}

// TestMSHR1IsTheBlockingModel: there are two miss models, and the knob
// has no third value between them — MSHRs 0 and 1 both build no file
// (the blocking model is Timing.SubmitMisses), 2 is the smallest file.
func TestMSHR1IsTheBlockingModel(t *testing.T) {
	for _, tc := range []struct{ mshrs, wantCap int }{{0, 0}, {1, 0}, {2, 2}, {8, 8}} {
		tim := vmem.Timing{L2Latency: 20, MemLatency: 100, MSHRs: tc.mshrs}
		f := NewMemSystem(MemVectorCache3D, tim, 4, false).MSHR()
		switch {
		case tc.wantCap == 0 && f != nil:
			t.Errorf("MSHRs %d built a %d-register file; the blocking model has none", tc.mshrs, f.Cap())
		case tc.wantCap > 0 && (f == nil || f.Cap() != tc.wantCap):
			t.Errorf("MSHRs %d: want a %d-register file, got %v", tc.mshrs, tc.wantCap, f)
		}
	}
}

// TestPrefetchOffMatchesNoPrefetcher extends the equivalence net over
// the prefetch-off path: a Timing with PFStreams 0 must run the exact
// code the pre-prefetcher model ran, so cycles and commits match a
// configuration that never mentions the prefetcher, on the blocking
// model (spelled 0 and 1) and the decoupled file alike. (The absolute
// pre-PR baselines are pinned separately by TestGoldenStats.)
func TestPrefetchOffMatchesNoPrefetcher(t *testing.T) {
	bm := kernels.MotionSearch(kernels.SmallMotionSearchConfig())
	tr := &trace.Trace{}
	bm.Run(kernels.MOM3D, tr)
	for _, mshrs := range []int{0, 1, 8} {
		for _, spec := range []string{"fixed", "sdram/line/frfcfs"} {
			base := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, spec, mshrs)
			off, ms := simBenchPF(t, tr, kernels.MOM3D, MemVectorCache3D, spec, mshrs, 0, 0)
			if base.Cycles != off.Cycles || base.Committed != off.Committed {
				t.Errorf("%s/mshr%d: pf-off cycles %d (commits %d) != baseline %d (%d)",
					spec, mshrs, off.Cycles, off.Committed, base.Cycles, base.Committed)
			}
			if ms.Prefetcher() != nil {
				t.Fatalf("%s/mshr%d: PFStreams 0 built a prefetcher", spec, mshrs)
			}
			if st := ms.PrefetchStats(); st != (vmem.PrefetchStats{}) {
				t.Errorf("%s/mshr%d: pf-off run accumulated prefetch stats %+v", spec, mshrs, st)
			}
		}
	}
}

// TestPrefetchPipelineEndToEnd: with the prefetcher on, a streaming
// kernel still commits every instruction, issues prefetches, and the
// prefetch traffic is visible in the DRAM statistics.
func TestPrefetchPipelineEndToEnd(t *testing.T) {
	bm := GSMEnc()
	tr := &trace.Trace{}
	bm.Run(kernels.MOM3D, tr)
	base := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, "sdram/line/frfcfs", 16)
	pf, ms := simBenchPF(t, tr, kernels.MOM3D, MemVectorCache3D, "sdram/line/frfcfs", 16, 8, 2)
	if pf.Committed != base.Committed {
		t.Fatalf("committed %d != baseline %d", pf.Committed, base.Committed)
	}
	st := ms.PrefetchStats()
	if st.Issued == 0 {
		t.Fatal("the sequential gsmencode miss stream must trigger prefetches")
	}
	if got := ms.DRAM().Stats().PrefetchReads; got != st.Issued {
		// Every issued prefetch read reaches the backend by end-of-run
		// (SimulateStream drains the file).
		t.Errorf("dram prefetch reads %d != issued %d", got, st.Issued)
	}
	if st.Hits+st.Late+st.Useless > st.Issued {
		t.Errorf("outcome counts exceed issues: %+v", st)
	}
}

// TestPrefetchRequiresNonBlockingFile: building a memory system with
// the prefetcher over a blocking pipeline must panic — the CLIs reject
// it, and the model layer backstops them.
func TestPrefetchRequiresNonBlockingFile(t *testing.T) {
	for _, mshrs := range []int{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PFStreams with MSHRs=%d must panic", mshrs)
				}
			}()
			tim := vmem.Timing{L2Latency: 20, MemLatency: 100, MSHRs: mshrs, PFStreams: 8}
			NewMemSystem(MemVectorCache3D, tim, 4, false)
		}()
	}
}

// TestDecoupledPipelineCompletes: the non-blocking pipeline must commit
// every instruction, overlap misses (early retirement observed), and
// never lose a completion — final cycles cover the last outstanding
// fill.
func TestDecoupledPipelineCompletes(t *testing.T) {
	bm := kernels.MotionSearch(kernels.SmallMotionSearchConfig())
	tr := &trace.Trace{}
	bm.Run(kernels.MOM3D, tr)
	blocking := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, "sdram/line/frfcfs", 0)
	dec := simBench(t, tr, kernels.MOM3D, MemVectorCache3D, "sdram/line/frfcfs", 16)
	if dec.Committed != blocking.Committed {
		t.Fatalf("committed %d != blocking %d", dec.Committed, blocking.Committed)
	}
	if dec.EarlyRetired == 0 {
		t.Error("a streaming kernel over a 16-entry file must retire instructions under outstanding misses")
	}
}

// TestScoreboardStallsOnTrueDependency: a consumer of a missing load's
// register must wait for the fill, while a run whose tail is
// independent of the load streams past it. The two traces differ only
// in whether the add chain reads the loaded register.
func TestScoreboardStallsOnTrueDependency(t *testing.T) {
	const chain = 100
	mk := func(dependent bool) []isa.Inst {
		var insts []isa.Inst
		// One cold scalar load: L1 miss + L2 miss + 100-cycle memory.
		insts = append(insts, isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem,
			Dst: isa.R(1), Imm: 8, Addr: 0x80000})
		src := 2
		if dependent {
			src = 1
		}
		insts = append(insts, isa.Inst{Op: isa.OpIAdd, Kind: isa.KindScalar,
			Dst: isa.R(3), Src1: isa.R(src), Src2: isa.R(4)})
		for i := 0; i < chain; i++ {
			insts = append(insts, isa.Inst{Op: isa.OpIAddImm, Kind: isa.KindScalar,
				Dst: isa.R(3), Src1: isa.R(3), Imm: 1})
		}
		for i := range insts {
			insts[i].Seq = uint64(i)
		}
		return insts
	}
	run := func(dependent bool) *Stats {
		tim := vmem.Timing{L2Latency: 20, MemLatency: 100, MSHRs: 8}
		ms := NewMemSystem(MemVectorCache, tim, 4, false)
		return simulate(MMXCore(), ms, mk(dependent))
	}
	dep := run(true)
	indep := run(false)
	// The dependent chain serializes behind the ~120-cycle miss; the
	// independent chain only pays the drain (the fill completes under
	// the adds).
	if dep.Cycles < 120+chain {
		t.Errorf("dependent chain finished in %d cycles; the consumer must wait for the fill", dep.Cycles)
	}
	if indep.Cycles >= dep.Cycles {
		t.Errorf("independent chain (%d cycles) must beat the dependent chain (%d)", indep.Cycles, dep.Cycles)
	}
	if indep.EarlyRetired == 0 {
		t.Error("the independent run must retire the load before its fill")
	}
}

// TestStoreBufferBounds: with a 1-entry store buffer, back-to-back
// missing stores must stall commit.
func TestStoreBufferBounds(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 16; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpVStore, Kind: isa.KindMOMMem,
			Src2: isa.V(1), VL: 4, Stride: 8, Addr: uint64(0x10000 + i*4096), IsStore: true})
	}
	for i := range insts {
		insts[i].Seq = uint64(i)
	}
	cfg := MOMCore()
	cfg.StoreBuf = 1
	tim := vmem.Timing{L2Latency: 20, MemLatency: 100, MSHRs: 8}
	ms := NewMemSystem(MemVectorCache, tim, 4, false)
	st := simulate(cfg, ms, insts)
	if st.Committed != 16 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.StallSB == 0 {
		t.Error("a 1-entry store buffer must stall commit under missing stores")
	}
}
