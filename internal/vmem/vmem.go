// Package vmem implements the vector memory subsystems compared in the
// paper (§3.1, Fig 2, Fig 8): the ideal memory, the multi-banked cache
// (4 ports x 8 banks behind a crossbar), the vector cache (one wide port
// with two interleaved line banks and an interchange/shift&mask network),
// and the vector cache extended with the 3D register file datapath that
// can sink up to a whole L2 line per cycle.
//
// Each subsystem schedules the element accesses of one vector memory
// instruction against its port/bank resources and the shared L2 cache
// model. Issue and completion are split: Issue returns the cycle the
// instruction's port/bank occupancy and cache hits finish plus a
// Pending handle for any outstanding line misses. Main memory is always
// a dram.Backend (Timing.Backend; the seed's flat latency is dram.Fixed).
// There are two miss models and each is one path: the blocking model is
// Timing.SubmitMisses — the instruction's misses go to the backend as
// one batch and Issue's cycle is final — and the non-blocking model
// registers them in the shared MSHR file (mshr.go), so main-memory
// batches span several in-flight instructions. Timing.Complete is where
// the two part.
// Resource state persists across instructions, so back-to-back vector
// memory operations contend realistically.
package vmem

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Timing holds the memory latencies the subsystems compose.
type Timing struct {
	L2Latency int64 // L2 access latency (20 in the base system)

	// MemLatency is the seed's flat main-memory latency beyond the L2:
	// core.NewMemSystem builds Backend as dram.NewFixed(MemLatency) when
	// none is given. Nothing else reads it.
	MemLatency int64

	// Backend is the main memory behind the L2: every L2 miss becomes a
	// dram request, and every dirty victim a posted write. The
	// subsystems collect one instruction's misses into a batch and
	// Submit them together, so the controller sees the instruction's
	// whole memory parallelism at once. The subsystems and the MSHR file
	// require it; core.NewMemSystem fills it in.
	Backend dram.Backend

	// MSHRs requests a non-blocking miss pipeline: for 2 or more
	// core.NewMemSystem builds an MSHR file of this size and wires it
	// into MSHR, decoupling issue from completion. 0 or 1 is the
	// blocking model, which has no file.
	MSHRs int

	// MSHR is the miss-status holding register file shared by the
	// vector subsystems and the scalar miss path. When nil, every
	// instruction's batch is submitted synchronously (the blocking
	// model); when set, batches register in the file and completion is
	// read off the returned Pending handles.
	MSHR *MSHRFile

	// PFStreams/PFDegree size the stream prefetcher
	// (core.NewMemSystem attaches it to the MSHR file): PFStreams
	// stream-table entries, each keeping PFDegree lines in flight
	// ahead of its confirmed stride. PFStreams 0 disables prefetching;
	// enabling it requires a non-blocking file (MSHRs >= 2), because
	// predicted lines ride the lazily-submitted MSHR batch.
	PFStreams int
	PFDegree  int

	// Tenant is the requestor this timing context files misses under
	// when the memory system is shared between several front ends
	// (below dram.MaxTenants): the subsystems stamp it on every request
	// and prefetched-line touch they create (dram.Request.Tenant). 0 is
	// the single-requestor default.
	Tenant int

	// VA, when non-nil, is this requestor's virtual address space: the
	// subsystems translate every word/line address through it before
	// the cache hierarchy, so the page-placement policy decides which
	// banks, rows and channels an access stream physically hits.
	// Translation *timing* (TLB misses, walk stalls) is charged at the
	// issue stage by the core, not here; the data path translates for
	// free because Ready already resolved every page. nil keeps all
	// addresses physical — the bit-identical default.
	VA *vm.Space
}

// Xl translates a virtual address through the attached address space;
// without one it is the identity.
func (tm Timing) Xl(a uint64) uint64 {
	if tm.VA != nil {
		return tm.VA.Translate(a)
	}
	return a
}

// DefaultTiming is the paper's base system (§5.3) over a 100-cycle DRAM,
// which core.NewMemSystem builds as dram.NewFixed(100).
func DefaultTiming() Timing { return Timing{L2Latency: 20, MemLatency: 100} }

// SubmitMisses is the blocking model: it presents one instruction's
// collected misses (and any dirty-victim write-backs) to the main memory
// as a single batch and returns the latest read completion, or t0 when
// every request was a posted write.
func (tm Timing) SubmitMisses(batch []dram.Request, t0 int64) int64 {
	done := t0
	if len(batch) == 0 {
		return done
	}
	for _, c := range tm.Backend.Submit(batch) {
		// Posted writes never gate instruction completion: the queue
		// absorbs them and drains behind later traffic.
		if !c.Write && c.Done > done {
			done = c.Done
		}
	}
	return done
}

// Complete finishes one instruction's miss batch under the configured
// miss model: with no MSHR file the batch is submitted synchronously
// and the final completion returned (the blocking model); with a file
// the batch registers and the caller receives a Pending handle — nil
// when the completion is already final (nothing missed). pfTouch lists
// the instruction's demand touches of prefetched L2 lines (always empty
// without a prefetcher, which also requires the file). occDone is the
// completion of the instruction's port/bank occupancy and cache hits.
func (tm Timing) Complete(batch []dram.Request, pfTouch []PFTouch, occDone int64) (int64, *Pending) {
	if tm.MSHR == nil {
		return tm.SubmitMisses(batch, occDone), nil
	}
	if len(batch) == 0 && len(pfTouch) == 0 {
		return occDone, nil
	}
	p := tm.MSHR.Register(batch, pfTouch, occDone)
	if !p.waits {
		// Nothing outstanding (every touched prefetch had already
		// landed): the occupancy time is final.
		return occDone, nil
	}
	return occDone, p
}

// Stats aggregates a subsystem's activity. "Accesses" counts cache access
// cycles — the unit of Table 4's L2 activity and the denominator of the
// effective bandwidth of Fig 6. "Words" counts 64-bit words transferred,
// the unit of Fig 7's traffic.
type Stats struct {
	Instructions uint64
	Accesses     uint64
	Words        uint64
	Elements     uint64
	Misses       uint64
	Conflicts    uint64 // multi-banked: accesses delayed by bank conflicts
	Invalidates  uint64 // L1 lines invalidated by the exclusive-bit filter
	D3Words      uint64 // words written into the 3D register file lanes
}

// EffectiveBandwidth is words transferred per cache access (Fig 6).
func (s *Stats) EffectiveBandwidth() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Words) / float64(s.Accesses)
}

// System is one vector memory subsystem.
type System interface {
	// Issue schedules all element accesses of a vector memory
	// instruction beginning no earlier than cycle t0. The int64 is the
	// cycle the instruction's port/bank occupancy and cache hits
	// complete; the Pending handle, when non-nil, tracks outstanding
	// line misses registered in the MSHR file — the instruction's data
	// is not architecturally complete until the handle reports ready.
	// A nil handle means the returned cycle is the final completion
	// (every access hit, or the subsystem runs the blocking model).
	// in is the core's per-Sim scratch instruction, overwritten by its
	// next memory issue: an implementation reads it during the call
	// and keeps no pointer to it.
	Issue(in *isa.Inst, t0 int64) (int64, *Pending)
	// Stats exposes the accumulated counters.
	Stats() *Stats
}

// Ideal is the idealistic memory of §3.1: single-cycle latency, unbounded
// bandwidth, every access a hit.
type Ideal struct {
	st Stats
}

// NewIdeal returns an ideal vector memory.
func NewIdeal() *Ideal { return &Ideal{} }

// Stats implements System.
func (i *Ideal) Stats() *Stats { return &i.st }

// Issue implements System: everything completes next cycle.
func (i *Ideal) Issue(in *isa.Inst, t0 int64) (int64, *Pending) {
	i.st.Instructions++
	words := uint64(in.Bytes()+7) / 8
	i.st.Words += words
	i.st.Accesses += words
	i.st.Elements += uint64(in.VL)
	return t0 + 1, nil
}

// MultiBanked is the 4-port, 8-bank design of Fig 2-a: every element is a
// single-word access that needs a free port and a conflict-free bank.
type MultiBanked struct {
	l2    *cache.Cache
	l1    *cache.Cache // invalidation target for vector stores (may be nil)
	tim   Timing
	ports []int64
	banks []int64
	st    Stats
	batch []dram.Request
	pfBuf []PFTouch
}

// NewMultiBanked builds the multi-banked subsystem over the shared L2.
func NewMultiBanked(l2, l1 *cache.Cache, tim Timing, nPorts, nBanks int) *MultiBanked {
	return &MultiBanked{
		l2: l2, l1: l1, tim: tim,
		ports: make([]int64, nPorts),
		banks: make([]int64, nBanks),
	}
}

// Stats implements System.
func (m *MultiBanked) Stats() *Stats { return &m.st }

// Issue implements System.
func (m *MultiBanked) Issue(in *isa.Inst, t0 int64) (int64, *Pending) {
	m.st.Instructions++
	m.batch = m.batch[:0]
	m.pfBuf = m.pfBuf[:0]
	ten := uint8(m.tim.Tenant)
	done := t0
	words := (in.ElemBytes() + 7) / 8
	for e := 0; e < in.Elems(); e++ {
		m.st.Elements++
		// Elements wider than a word (3D loads on this subsystem) cost
		// one bank access per word.
		for w := 0; w < words; w++ {
			addr := m.tim.Xl(in.ElemAddr(in.Addr, e) + uint64(8*w))
			bank := (addr >> 3) % uint64(len(m.banks))
			// Earliest free port.
			p := 0
			for i := 1; i < len(m.ports); i++ {
				if m.ports[i] < m.ports[p] {
					p = i
				}
			}
			t := t0
			if m.ports[p] > t {
				t = m.ports[p]
			}
			if m.banks[bank] > t {
				m.st.Conflicts++
				t = m.banks[bank]
			}
			m.ports[p] = t + 1
			m.banks[bank] = t + 1
			m.st.Accesses++
			m.st.Words++
			ct := t + m.tim.L2Latency
			res := m.access(addr, in.IsStore)
			if !res.Hit {
				m.st.Misses++
				m.batch = append(m.batch, dram.Request{Addr: addr, At: ct, Tenant: ten})
			}
			if res.Prefetched {
				m.pfBuf = append(m.pfBuf, PFTouch{Line: m.l2.LineAddr(addr), At: ct, Tenant: ten})
			}
			if res.Writeback {
				m.batch = append(m.batch, dram.Request{Addr: res.VictimAddr, Write: true, At: ct, Tenant: ten})
			}
			if ct > done {
				done = ct
			}
		}
	}
	// The whole instruction's misses reach the controller (or the MSHR
	// file) as one batch: the memory parallelism the instruction
	// exposes is visible to the scheduler at once. Bank conflicts make
	// the per-word times non-monotonic; the backend orders arrivals
	// itself.
	return m.tim.Complete(m.batch, m.pfBuf, done)
}

func (m *MultiBanked) access(addr uint64, store bool) cache.Result {
	coherenceInvalidate(m.l2, m.l1, addr, store, &m.st)
	return m.l2.Access(addr, store, false)
}

// VectorCache is the port-widening design of Fig 2-b: one port delivering
// up to `lanes` consecutive 64-bit words per access (two interleaved line
// banks allow crossing one line boundary). A 3D load is the Fig 8-c
// datapath: dvload elements of up to a whole L2 line move in a single
// access into the 3D register file.
type VectorCache struct {
	l2       *cache.Cache
	l1       *cache.Cache
	tim      Timing
	lanes    int
	portFree int64
	st       Stats
	missBuf  []uint64
	wbBuf    []uint64
	batch    []dram.Request
	pfBuf    []PFTouch
}

// NewVectorCache builds the vector cache subsystem over the shared L2.
func NewVectorCache(l2, l1 *cache.Cache, tim Timing, lanes int) *VectorCache {
	return &VectorCache{l2: l2, l1: l1, tim: tim, lanes: lanes}
}

// Stats implements System.
func (v *VectorCache) Stats() *Stats { return &v.st }

// Issue implements System.
func (v *VectorCache) Issue(in *isa.Inst, t0 int64) (int64, *Pending) {
	v.st.Instructions++
	v.batch = v.batch[:0]
	v.pfBuf = v.pfBuf[:0]
	ten := uint8(v.tim.Tenant)
	done := t0
	access := func(addr uint64, words int, elems int) {
		t := t0
		if v.portFree > t {
			t = v.portFree
		}
		v.portFree = t + 1
		v.st.Accesses++
		v.st.Words += uint64(words)
		v.st.Elements += uint64(elems)
		ct := t + v.tim.L2Latency
		if missed := v.lookup(addr, uint64(words*8), in.IsStore, ct); len(missed) > 0 {
			v.st.Misses++
			for _, a := range missed {
				v.batch = append(v.batch, dram.Request{Addr: a, At: ct, Tenant: ten})
			}
		}
		for _, a := range v.wbBuf {
			v.batch = append(v.batch, dram.Request{Addr: a, Write: true, At: ct, Tenant: ten})
		}
		if ct > done {
			done = ct
		}
	}

	switch {
	case in.Kind == isa.Kind3DLoad:
		// One wide access per element: the two interleaved banks deliver
		// any span of up to a full line's width crossing at most one
		// line boundary, written in parallel to one 3D register lane.
		for e := 0; e < in.VL; e++ {
			access(in.ElemAddr(in.Addr, e), in.Width, 1)
			v.st.D3Words += uint64(in.Width)
		}
	case in.Stride == 0:
		// Broadcast: a single access feeds every element.
		access(in.Addr, 1, in.VL)
	case in.Stride == 8:
		// Consecutive elements: runs of up to `lanes` words per access.
		for e := 0; e < in.VL; e += v.lanes {
			n := in.VL - e
			if n > v.lanes {
				n = v.lanes
			}
			access(in.Addr+uint64(8*e), n, n)
		}
	default:
		// Strided: one element per access — the vector cache cannot
		// gather non-consecutive words in one cycle (§3.1).
		for e := 0; e < in.VL; e++ {
			access(in.ElemAddr(in.Addr, e), 1, 1)
		}
	}
	// The whole instruction's misses form one controller batch.
	return v.tim.Complete(v.batch, v.pfBuf, done)
}

// lookup touches every L2 line the access spans (at most two for 2D
// accesses, two for 128-byte 3D elements) and returns the line
// addresses that missed; each becomes one main-memory request. Dirty
// victims evicted by the fills land in wbBuf as pending write-backs;
// demand touches of prefetched lines land in pfBuf stamped with the
// access's completion cycle ct. The slices are reused across calls.
func (v *VectorCache) lookup(addr, bytes uint64, store bool, ct int64) []uint64 {
	if bytes == 0 {
		bytes = 8
	}
	first := v.l2.LineAddr(addr)
	last := v.l2.LineAddr(addr + bytes - 1)
	v.missBuf = v.missBuf[:0]
	v.wbBuf = v.wbBuf[:0]
	// The span is contiguous in the virtual space; each line translates
	// independently, so a page-crossing access may hit discontiguous
	// physical lines (line-aligned virtual addresses stay line-aligned
	// because pages are line-multiples).
	for a := first; ; a += uint64(v.l2.Config().LineSize) {
		pa := v.tim.Xl(a)
		coherenceInvalidate(v.l2, v.l1, pa, store, &v.st)
		res := v.l2.Access(pa, store, false)
		if !res.Hit {
			v.missBuf = append(v.missBuf, pa)
		}
		if res.Prefetched {
			v.pfBuf = append(v.pfBuf, PFTouch{Line: pa, At: ct, Tenant: uint8(v.tim.Tenant)})
		}
		if res.Writeback {
			v.wbBuf = append(v.wbBuf, res.VictimAddr)
		}
		if a == last {
			break
		}
	}
	return v.missBuf
}

// coherenceInvalidate applies the exclusive-bit policy (§5.3): when a
// vector store touches an L2 line that may be cached in the L1, the L1
// copies are invalidated.
func coherenceInvalidate(l2, l1 *cache.Cache, addr uint64, store bool, st *Stats) {
	if !store || l1 == nil {
		return
	}
	if !l2.ExclusiveInL1(addr) {
		return
	}
	lineA := l2.LineAddr(addr)
	for a := lineA; a < lineA+uint64(l2.Config().LineSize); a += uint64(l1.Config().LineSize) {
		if l1.Invalidate(a) {
			st.Invalidates++
		}
	}
}
