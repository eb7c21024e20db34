// Package core implements the trace-driven, cycle-level out-of-order
// superscalar processor model of the paper's evaluation (§5.3, Table 2):
// an 8-way machine with an independent multimedia pipeline, in MMX-like
// and MOM flavors, over the cache hierarchy and vector memory subsystems
// of internal/cache and internal/vmem.
//
// It is the repository's substitute for the authors' Jinks simulator.
// Branch prediction is perfect, the §5.3 modelling assumption for
// trace-driven, loop-dominated media codes: a taken branch only ends
// its cycle's fetch.
package core

import "repro/internal/isa"

// Config holds the processor parameters of Table 2 plus the register-file
// capacities of Table 3.
type Config struct {
	Name string

	// Front end and windows.
	FetchWidth  int // instructions fetched/dispatched per cycle
	CommitWidth int // graduations per cycle
	Window      int // graduation window (ROB) entries
	LSQ         int // load/store queue entries

	// Integer pipeline.
	IntIssue int

	// Multimedia pipeline. The MMX flavor (Lanes 1) has SIMDIssue
	// independent single-op units; the MOM flavor has one unit of Lanes
	// lanes that processes Lanes vector elements per cycle.
	SIMDIssue int
	Lanes     int

	// Memory pipeline.
	MemIssue int // memory instructions issued per cycle

	// StoreBuf bounds stores that have retired from the window while
	// their line fill is still outstanding in the MSHR file (the
	// non-blocking pipeline lets stores graduate underneath in-flight
	// misses); commit stalls when it is full. 0 means unbounded. Only
	// meaningful with MSHRs >= 2 — the blocking model never retires a
	// store before its memory completes.
	StoreBuf int

	// Physical register capacities (Table 3) of the two classes that
	// gate dispatch: in-flight writers are bounded by physical - logical.
	PhysVec, LogVec int
	Phys3D, Log3D   int
}

// MMXCore returns the MMX-like configuration of Table 2.
func MMXCore() Config {
	return Config{
		Name:       "MMX",
		FetchWidth: 8, CommitWidth: 8, Window: 128, LSQ: 32,
		IntIssue:  4,
		SIMDIssue: 4, Lanes: 1,
		MemIssue: 4, StoreBuf: 16,
		PhysVec: 80, LogVec: 32,
		Phys3D: 4, Log3D: 2,
	}
}

// MOMCore returns the MOM configuration of Table 2 (also used for MOM+3D;
// the 3D register files are present but only exercised by 3D code).
func MOMCore() Config {
	return Config{
		Name:       "MOM",
		FetchWidth: 8, CommitWidth: 8, Window: 128, LSQ: 32,
		IntIssue:  4,
		SIMDIssue: 1, Lanes: 4,
		MemIssue: 2, StoreBuf: 16,
		PhysVec: 36, LogVec: 16,
		Phys3D: 4, Log3D: 2,
	}
}

// queue identifies the issue pipeline an instruction dispatches to.
type queue uint8

const (
	qInt queue = iota
	qSIMD
	qMem
	qCount
)

// queueOf maps an instruction to its issue pipeline. 3dvmov is a register
// file transfer over the dedicated 3D datapath (Fig 8-c); it issues from
// the memory pipeline, not the SIMD ALU slot.
func queueOf(in *isa.Inst) queue {
	switch in.Kind {
	case isa.KindScalar, isa.KindBranch:
		return qInt
	case isa.KindUSIMD, isa.KindMOM:
		return qSIMD
	default:
		return qMem
	}
}

// simdOccupancy is the number of cycles an instruction holds the MOM SIMD
// unit: Lanes elements per cycle.
func simdOccupancy(in *isa.Inst, lanes int) int64 {
	vl := in.VL
	if vl < 1 {
		vl = 1
	}
	return int64((vl + lanes - 1) / lanes)
}
