package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// simulate runs insts to completion cycle by cycle through the
// reference loop.
func simulate(cfg Config, mem *MemSystem, insts []isa.Inst) *Stats {
	return simulateMode(cfg, mem, insts, engine.Step)
}

// simulateMode is simulate under either engine.
func simulateMode(cfg Config, mem *MemSystem, insts []isa.Inst, mode engine.Mode) *Stats {
	return SimulateStream(cfg, mem, trace.Compact(insts), mode)
}

func idealMem() *MemSystem { return NewMemSystem(MemIdeal, vmem.DefaultTiming(), 4, false) }

// seqify assigns sequence numbers in order.
func seqify(insts []isa.Inst) []isa.Inst {
	for i := range insts {
		insts[i].Seq = uint64(i)
	}
	return insts
}

func add(dst, a, b int) isa.Inst {
	return isa.Inst{Op: isa.OpIAdd, Kind: isa.KindScalar, Dst: isa.R(dst), Src1: isa.R(a), Src2: isa.R(b)}
}

func TestIndependentScalarIPC(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 4000; i++ {
		insts = append(insts, add(i%8, 8+i%8, 16+i%8))
	}
	st := simulate(MMXCore(), idealMem(), seqify(insts))
	if st.Committed != 4000 {
		t.Fatalf("committed %d", st.Committed)
	}
	// Bound by integer issue width 4.
	if ipc := st.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Errorf("IPC = %.2f, want ~4 (int issue width)", ipc)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 1000; i++ {
		insts = append(insts, add(1, 1, 2)) // r1 = r1 + r2, serial chain
	}
	st := simulate(MMXCore(), idealMem(), seqify(insts))
	if st.Cycles < 1000 {
		t.Errorf("cycles = %d, a 1000-deep chain needs >= 1000 cycles", st.Cycles)
	}
}

func TestTakenBranchFetchBreak(t *testing.T) {
	// Pairs of (add, taken branch): fetch breaks every branch, so at most
	// 2 instructions enter per cycle.
	var insts []isa.Inst
	for i := 0; i < 500; i++ {
		insts = append(insts, add(1, 2, 3))
		insts = append(insts, isa.Inst{Op: isa.OpBr, Kind: isa.KindBranch, Src1: isa.R(1), Taken: true})
	}
	st := simulate(MMXCore(), idealMem(), seqify(insts))
	if ipc := st.IPC(); ipc > 2.05 {
		t.Errorf("IPC = %.2f, fetch breaks must cap it at ~2", ipc)
	}
}

func TestMOMOccupancy(t *testing.T) {
	// Two independent VL=16 vector adds on the 4-lane MOM unit: the
	// second cannot issue until the first's 4 occupancy cycles elapse.
	insts := seqify([]isa.Inst{
		{Op: isa.OpPAddB, Kind: isa.KindMOM, Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(3), VL: 16},
		{Op: isa.OpPAddB, Kind: isa.KindMOM, Dst: isa.V(4), Src1: isa.V(5), Src2: isa.V(6), VL: 16},
	})
	st := simulate(MOMCore(), idealMem(), insts)
	// First issues at cycle 0 (occ 4, lat 1): done 4. Second issues at 4,
	// done 8; commit at 8 -> ~9-10 cycles total.
	if st.Cycles < 8 || st.Cycles > 12 {
		t.Errorf("cycles = %d, want ~9 (occupancy serialization)", st.Cycles)
	}
}

func TestMMXParallelSIMD(t *testing.T) {
	// Four independent μSIMD adds issue in one cycle on the MMX core.
	var insts []isa.Inst
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpPAddB, Kind: isa.KindUSIMD,
			Dst: isa.V(i), Src1: isa.V(8 + i), Src2: isa.V(16 + i)})
	}
	st := simulate(MMXCore(), idealMem(), seqify(insts))
	if st.Cycles > 5 {
		t.Errorf("cycles = %d, four independent μSIMD ops should finish in ~3", st.Cycles)
	}
}

func TestStoreLoadOrdering(t *testing.T) {
	// A load overlapping an older store may not issue before the store
	// does (forwarding supplies the data once the store has issued). Make
	// the store's data late with a long dependence chain; the overlapping
	// load must be delayed by it, the disjoint load must not.
	mkVec := func(overlap bool) []isa.Inst {
		loadAddr := uint64(0x9000)
		if overlap {
			loadAddr = 0x1040
		}
		var insts []isa.Inst
		// Warm both lines so misses don't mask the ordering effect.
		insts = append(insts,
			isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(5), VL: 4, Stride: 8, Addr: 0x1000},
			isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(6), VL: 4, Stride: 8, Addr: 0x9000},
		)
		for i := 0; i < 30; i++ { // serial chain producing the store data
			insts = append(insts, isa.Inst{Op: isa.OpPAddB, Kind: isa.KindMOM,
				Dst: isa.V(1), Src1: isa.V(1), Src2: isa.V(2), VL: 16})
		}
		insts = append(insts,
			isa.Inst{Op: isa.OpVStore, Kind: isa.KindMOMMem, Src2: isa.V(1), VL: 16, Stride: 8, Addr: 0x1000, IsStore: true},
			isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(3), VL: 4, Stride: 8, Addr: loadAddr},
			// Scalar consumer chain (independent of the busy SIMD unit).
			isa.Inst{Op: isa.OpVMovV2I, Kind: isa.KindScalar, Dst: isa.R(1), Src1: isa.V(3)},
		)
		for i := 0; i < 30; i++ {
			insts = append(insts, isa.Inst{Op: isa.OpIAddImm, Kind: isa.KindScalar,
				Dst: isa.R(1), Src1: isa.R(1), Imm: 1})
		}
		return seqify(insts)
	}
	cfg := MOMCore()
	a := simulate(cfg, NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false), mkVec(true))
	b := simulate(cfg, NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false), mkVec(false))
	if a.Cycles <= b.Cycles {
		t.Errorf("overlapping load (%d cycles) must be delayed past the disjoint case (%d)", a.Cycles, b.Cycles)
	}
}

func TestRenameLimitStalls(t *testing.T) {
	// More in-flight MOM register writers than physical registers allow
	// (36 - 16 = 20): a long chain of independent vector loads through a
	// slow memory keeps writers in flight; dispatch must stall, not break.
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpVLoad, Kind: isa.KindMOMMem,
			Dst: isa.V(i % 16), VL: 16, Stride: 176, Addr: uint64(0x10000 + i*4096)})
	}
	st := simulate(MOMCore(), NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false), seqify(insts))
	if st.Committed != 64 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.StallRegs == 0 {
		t.Error("expected rename stalls with 64 in-flight vector writers")
	}
}

func TestVectorMemoryCompletes(t *testing.T) {
	insts := seqify([]isa.Inst{
		{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad, Dst: isa.D(0), VL: 16, Width: 16, Stride: 176, Addr: 0x2000},
		{Op: isa.Op3DVMov, Kind: isa.Kind3DMove, Dst: isa.V(1), Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 1, VL: 16},
		{Op: isa.OpVSadAcc, Kind: isa.KindMOM, Dst: isa.A(0), Src1: isa.V(1), Src2: isa.V(2), VL: 16},
	})
	mem := NewMemSystem(MemVectorCache3D, vmem.DefaultTiming(), 4, false)
	st := simulate(MOMCore(), mem, insts)
	if st.Committed != 3 {
		t.Fatalf("committed %d", st.Committed)
	}
	if mem.VM.Stats().Accesses != 16 {
		t.Errorf("3D load accesses = %d, want 16", mem.VM.Stats().Accesses)
	}
	// The dvmov depends on the dvload's data: total time must include the
	// memory latency and the transfer occupancy.
	if st.Cycles < 40 {
		t.Errorf("cycles = %d, expected the L2+miss latency to show", st.Cycles)
	}
}

func TestPointerChainFasterThanData(t *testing.T) {
	// Successive 3dvmovs depend on each other's pointer (1 cycle), not
	// the 3-cycle data path. With VL=4 (occupancy 1), a chain of N dvmovs
	// should run ~1 cycle apart, not 3.
	var insts []isa.Inst
	insts = append(insts, isa.Inst{Op: isa.Op3DVLoad, Kind: isa.Kind3DLoad,
		Dst: isa.D(0), VL: 4, Width: 4, Stride: 64, Addr: 0x3000})
	for i := 0; i < 40; i++ {
		insts = append(insts, isa.Inst{Op: isa.Op3DVMov, Kind: isa.Kind3DMove,
			Dst: isa.V(1 + i%8), Src1: isa.D(0), Ptr: isa.P(0), PtrStep: 1, VL: 4})
	}
	mem := NewMemSystem(MemIdeal, vmem.DefaultTiming(), 4, false)
	st := simulate(MOMCore(), mem, seqify(insts))
	// 40 dvmovs at ~1/cycle plus setup; data-serialized would be ~120+.
	if st.Cycles > 80 {
		t.Errorf("cycles = %d, pointer chain must not serialize on data latency", st.Cycles)
	}
}

func TestGshareAblation(t *testing.T) {
	// Alternating taken/not-taken branches: gshare learns the pattern,
	// so mispredicts must be far below 50%.
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts, add(1, 2, 3))
		insts = append(insts, isa.Inst{Op: isa.OpBr, Kind: isa.KindBranch, Src1: isa.R(1), Taken: i%2 == 0})
	}
	cfg := MMXCore()
	cfg.UseGshare = true
	st := simulate(cfg, idealMem(), seqify(insts))
	if st.Mispredicts > 400 {
		t.Errorf("mispredicts = %d on a learnable pattern", st.Mispredicts)
	}
	// And the penalty must cost cycles relative to perfect prediction.
	st2 := simulate(MMXCore(), idealMem(), seqify(insts))
	if st.Cycles <= st2.Cycles {
		t.Errorf("gshare (%d cycles) must not beat perfect prediction (%d)", st.Cycles, st2.Cycles)
	}
}

func TestMemKindStrings(t *testing.T) {
	kinds := []MemKind{MemIdeal, MemMultiBanked, MemVectorCache, MemVectorCache3D}
	for _, k := range kinds {
		if k.String() == "?" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestL2ActivityAccounting(t *testing.T) {
	mem := NewMemSystem(MemVectorCache, vmem.DefaultTiming(), 4, false)
	insts := seqify([]isa.Inst{
		{Op: isa.OpVLoad, Kind: isa.KindMOMMem, Dst: isa.V(1), VL: 16, Stride: 176, Addr: 0x2000},
		{Op: isa.OpLoad, Kind: isa.KindScalarMem, Dst: isa.R(1), Imm: 8, Addr: 0x80000},
	})
	simulate(MOMCore(), mem, insts)
	if mem.L2Activity() != mem.VM.Stats().Accesses+mem.ScalarL2Accesses {
		t.Error("activity must be vector + scalar-miss accesses")
	}
	if mem.ScalarL2Accesses != 1 {
		t.Errorf("scalar L2 accesses = %d, want 1 (cold miss)", mem.ScalarL2Accesses)
	}
}

// TestSimulateResultDoesNotPinTheMachine: the statistics SimulateStream
// returns are what the experiment runner memoizes per cell, so they
// must not keep the Sim — and through it the window, the memory system
// and its cache arrays — reachable. (Finish returns a pointer into the
// Sim; until SimulateStream copied it, every memoized cell held half a
// megabyte of machine.)
func TestSimulateResultDoesNotPinTheMachine(t *testing.T) {
	ms := idealMem()
	freed := make(chan struct{})
	runtime.SetFinalizer(ms, func(*MemSystem) { close(freed) })
	st := simulate(MOMCore(), ms, seqify([]isa.Inst{add(1, 2, 3), add(4, 1, 1)}))
	ms = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(st)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the memory system is still reachable from the returned stats (%d cycles)", st.Cycles)
}

// Dispatch reads every instruction of the stream once, through the
// stream's one decoder: a dispatch that skipped or repeated one would
// hand every later memory instruction its neighbour's address. Over
// every golden-suite stream under both engines the Sim's cursor must
// end where reading the stream straight through ends, every address
// taken.
func TestDispatchReadsEveryAddressOnce(t *testing.T) {
	var rec trace.Recorder
	for _, bm := range equivBenches() {
		for _, vk := range goldenVariants {
			s, _ := rec.Record(func(sink trace.Sink) { bm.Run(vk.v, sink) })
			cfg := MOMCore()
			if vk.v == kernels.MMX {
				cfg = MMXCore()
			}
			for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
				ms := NewMemSystem(vk.kind, vmem.DefaultTiming(), cfg.Lanes, vk.v == kernels.MMX)
				sim := NewStreamSim(cfg, ms, s, 0)
				runOn(mode)(sim)
				end := s.Cursor()
				for end.More() {
					end.Next()
				}
				if !reflect.DeepEqual(sim.cur, end) {
					t.Errorf("%s/%s [%v]: dispatch left the cursor at instruction %d of %d, or out of step with the %d addresses",
						bm.Name, vk.v, mode, sim.cur.Pos(), s.Len(), len(s.Addrs))
				}
			}
		}
	}
}
