package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// TestEmptyTrace: simulating nothing is zero cycles and doesn't hang.
func TestEmptyTrace(t *testing.T) {
	st := simulate(MOMCore(), idealMem(), nil)
	if st.Committed != 0 {
		t.Error("nothing to commit")
	}
}

// TestROBStallCounted: a window-filling burst of long-latency loads must
// report ROB pressure without deadlocking.
func TestROBStallCounted(t *testing.T) {
	var insts []isa.Inst
	// One very long latency load then hundreds of cheap scalar ops: the
	// window fills behind the load's in-order commit.
	insts = append(insts, isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem,
		Dst: isa.V(1), VL: 16, Stride: 4096, Addr: 0x100000})
	for i := 0; i < 400; i++ {
		insts = append(insts, add(1+i%4, 5, 6))
	}
	st := simulate(MOMCore(), NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false), seqify(insts))
	if st.Committed != 401 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.StallROB == 0 {
		t.Error("expected ROB stalls behind the long load")
	}
}

// TestLSQStallCounted: more in-flight memory operations than LSQ entries.
func TestLSQStallCounted(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem,
			Dst: isa.R(1 + i%8), Imm: 8, Addr: uint64(0x200000 + i*4096)})
	}
	cfg := MMXCore()
	st := simulate(cfg, NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, true), seqify(insts))
	if st.Committed != 64 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.StallLSQ == 0 {
		t.Error("expected LSQ stalls with 64 cold-missing loads")
	}
}

// TestDispatchStallPrecedence pins the order of the dispatch gates,
// which a stall-counter check of "> 0" does not: a cycle both a full ROB
// and a full LSQ refuse is charged to the ROB. Every instruction is a
// load behind one long-latency vector load, so the window and the LSQ
// hold the same entries; with Window == LSQ they fill on the same
// cycles, and only the ROB may be charged. With a larger window only the
// LSQ fills.
func TestDispatchStallPrecedence(t *testing.T) {
	insts := []isa.Inst{{Op: isa.OpVLoad, Kind: isa.KindMOMMem,
		Dst: isa.V(1), VL: 16, Stride: 4096, Addr: 0x100000}}
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpLoad, Kind: isa.KindScalarMem,
			Dst: isa.R(1 + i%8), Imm: 8, Addr: uint64(0x200000 + i*64)})
	}
	seqify(insts)
	for _, tc := range []struct {
		name        string
		window, lsq int
		robFull     bool
	}{
		{"both-full", 8, 8, true},
		{"lsq-only", 32, 8, false},
	} {
		for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
			cfg := MOMCore()
			cfg.Window, cfg.LSQ = tc.window, tc.lsq
			mem := NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false)
			st := simulateMode(cfg, mem, insts, mode)
			if st.Committed != uint64(len(insts)) {
				t.Fatalf("%s/%v: committed %d of %d", tc.name, mode, st.Committed, len(insts))
			}
			if (st.StallROB > 0) != tc.robFull || (st.StallLSQ > 0) == tc.robFull {
				t.Errorf("%s/%v: StallROB %d, StallLSQ %d: want only the ROB charged: %v",
					tc.name, mode, st.StallROB, st.StallLSQ, tc.robFull)
			}
		}
	}
}

// TestCommitWidthBounds: cycles can never be fewer than instructions
// divided by the commit width.
func TestCommitWidthBounds(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 1600; i++ {
		insts = append(insts, add(i%8, 8+i%8, 16+i%8))
	}
	cfg := MMXCore()
	st := simulate(cfg, idealMem(), seqify(insts))
	if st.Cycles < int64(len(insts)/cfg.CommitWidth) {
		t.Errorf("cycles %d below the commit-width bound", st.Cycles)
	}
}

// TestIdealNeverSlower: for every benchmark and variant, ideal memory is
// at least as fast as both realistic memories (a global sanity ordering).
func TestIdealNeverSlower(t *testing.T) {
	bms := []kernels.Benchmark{
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.JPEGDecode(kernels.SmallJPEGDecConfig()),
	}
	for _, bm := range bms {
		for _, v := range []kernels.Variant{kernels.MOM, kernels.MOM3D} {
			tr := &trace.Trace{}
			bm.Run(v, tr)
			cfg := MOMCore()
			run := func(k MemKind) int64 {
				return simulate(cfg, NewMemSystem(k, vmem.DefaultTiming(), 4, false), tr.Insts).Cycles
			}
			ideal := run(MemIdeal)
			for _, k := range []MemKind{MemMultiBanked, MemVectorCache, MemVectorCache3D} {
				if real := run(k); real < ideal {
					t.Errorf("%s/%v: %v (%d cycles) beat ideal (%d)", bm.Name, v, k, real, ideal)
				}
			}
		}
	}
}

// TestLatencyMonotonic: execution time must not decrease when L2 latency
// grows (failure injection for the timing composition).
func TestLatencyMonotonic(t *testing.T) {
	tr := &trace.Trace{}
	kernels.GSMEncode(kernels.SmallGSMEncConfig()).Run(kernels.MOM, tr)
	prev := int64(0)
	for _, lat := range []int64{10, 20, 40, 80} {
		tim := vmem.Timing{L2Latency: lat, MemLatency: 100}
		c := simulate(MOMCore(), NewMemSystem(MemVectorCache, tim, 4, false), tr.Insts).Cycles
		if c < prev {
			t.Errorf("latency %d: %d cycles < previous %d", lat, c, prev)
		}
		prev = c
	}
}

// TestDeterminism: identical inputs give identical cycle counts.
func TestDeterminism(t *testing.T) {
	tr := &trace.Trace{}
	kernels.MPEG2Decode(kernels.SmallMPEG2DecConfig()).Run(kernels.MOM3D, tr)
	run := func() int64 {
		return simulate(MOMCore(),
			NewMemSystem(MemVectorCache3D, vmem.DefaultTiming(), 4, false), tr.Insts).Cycles
	}
	if run() != run() {
		t.Error("simulation must be deterministic")
	}
}

// TestWindowScalingHelps: a larger window never hurts the 3D build (it
// feeds the prefetch effect).
func TestWindowScalingHelps(t *testing.T) {
	tr := &trace.Trace{}
	kernels.MPEG2Encode(kernels.SmallMPEG2EncConfig()).Run(kernels.MOM3D, tr)
	cfgSmall := MOMCore()
	cfgSmall.Window = 32
	cfgBig := MOMCore()
	cfgBig.Window = 256
	small := simulate(cfgSmall, NewMemSystem(MemVectorCache3D, vmem.DefaultTiming(), 4, false), tr.Insts).Cycles
	big := simulate(cfgBig, NewMemSystem(MemVectorCache3D, vmem.DefaultTiming(), 4, false), tr.Insts).Cycles
	if big > small {
		t.Errorf("window 256 (%d cycles) worse than window 32 (%d)", big, small)
	}
}

// TestForwardingCounted: the DCT-heavy kernels must exercise the LSQ
// forwarding path.
func TestForwardingCounted(t *testing.T) {
	tr := &trace.Trace{}
	kernels.JPEGEncode(kernels.SmallJPEGEncConfig()).Run(kernels.MOM, tr)
	st := simulate(MOMCore(), NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false), tr.Insts)
	if st.Forwarded == 0 {
		t.Error("expected store-to-load forwarding in the DCT pipeline")
	}
}
