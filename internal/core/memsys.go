package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// MemKind selects the memory system configuration of an experiment.
type MemKind int

const (
	// MemIdeal is the idealistic memory of §3.1: one cycle, unbounded
	// bandwidth, for both the scalar and vector sides.
	MemIdeal MemKind = iota
	// MemMultiBanked attaches the 4-port, 8-bank vector cache design
	// (Fig 2-a) to L2; in the MMX configuration the banking applies to
	// the L1 data cache ports instead.
	MemMultiBanked
	// MemVectorCache attaches the single-wide-port vector cache
	// (Fig 2-b): the MOM-vc machine, which runs no 3D code.
	MemVectorCache
	// MemVectorCache3D is the same vector cache with the 3D register
	// file datapath (Fig 8-c) that MOM+3D code loads through.
	MemVectorCache3D
)

// String names the memory system as the figures do.
func (k MemKind) String() string {
	switch k {
	case MemIdeal:
		return "ideal"
	case MemMultiBanked:
		return "multi-banked"
	case MemVectorCache:
		return "vector cache"
	case MemVectorCache3D:
		return "vector cache + 3D"
	}
	return "?"
}

// MemSystem bundles the cache hierarchy, the vector memory subsystem and
// the scalar access path for one simulation.
type MemSystem struct {
	Kind MemKind
	Tim  vmem.Timing
	L1   *cache.Cache // nil when ideal
	L2   *cache.Cache // nil when ideal
	VM   vmem.System

	// ScalarL2Accesses counts L2 activity caused by L1 load misses
	// (write-through store traffic is assumed coalesced by the write
	// buffer and is not charged as activity).
	ScalarL2Accesses uint64

	l1Banks []int64 // MMX multi-banked configuration: L1 bank free cycles

	scalarBatch []dram.Request // reused one-miss batch for the scalar path
	scalarPF    []vmem.PFTouch // reused prefetched-touch list for the scalar path
}

// NewMemSystem builds a memory system. lanes is the processor's lane
// count (the vector cache port width in words); bankL1 enables L1 port
// banking (the MMX multi-banked configuration). A Timing without a
// Backend gets the seed's flat latency, dram.NewFixed(tim.MemLatency):
// below this constructor main memory is always a backend.
func NewMemSystem(kind MemKind, tim vmem.Timing, lanes int, bankL1 bool) *MemSystem {
	if tim.Backend == nil {
		tim.Backend = dram.NewFixed(tim.MemLatency)
	}
	if kind == MemIdeal {
		return newFrontEnd(kind, tim, lanes, bankL1, nil)
	}
	l2 := cache.New(cache.L2Config(tim.L2Latency))
	if tim.MSHRs >= 2 {
		// One MSHR file serves the vector subsystem and the scalar miss
		// path: both sit behind the same L2, so their misses share the
		// same outstanding-line budget and the same Submit batches.
		tim.MSHR = vmem.NewMSHRFile(tim, tim.MSHRs)
	}
	if tim.PFStreams > 0 {
		// The stream prefetcher needs the lazy batch to ride: reject
		// configurations the CLIs should already have screened out.
		if tim.MSHRs < 2 {
			panic("core: the stream prefetcher (PFStreams > 0) requires a non-blocking MSHR file (MSHRs >= 2)")
		}
		pf := vmem.NewPrefetcher(vmem.PrefetchConfig{Streams: tim.PFStreams, Degree: tim.PFDegree},
			l2.Config().LineSize)
		tim.MSHR.AttachPrefetcher(pf, l2)
	}
	return newFrontEnd(kind, tim, lanes, bankL1, l2)
}

// newFrontEnd builds one requestor's private half of a memory system —
// its L1, vector subsystem and scalar path — in front of the shared
// half tim and l2 carry (the MSHR file, prefetcher and backend ride in
// tim). Every tenant's view, tenant 0's included, is built here.
func newFrontEnd(kind MemKind, tim vmem.Timing, lanes int, bankL1 bool, l2 *cache.Cache) *MemSystem {
	m := &MemSystem{Kind: kind, Tim: tim, L2: l2}
	if kind == MemIdeal {
		// The ideal memory bypasses the cache hierarchy the translation
		// layer models; the CLIs reject -va with ideal memory, and the
		// guard keeps a stray space from charging stalls here.
		m.Tim.VA = nil
		m.VM = vmem.NewIdeal()
		return m
	}
	m.L1 = cache.New(cache.L1Config())
	switch kind {
	case MemMultiBanked:
		m.VM = vmem.NewMultiBanked(m.L2, m.L1, m.Tim, 4, 8)
	case MemVectorCache, MemVectorCache3D:
		m.VM = vmem.NewVectorCache(m.L2, m.L1, m.Tim, lanes)
	}
	if bankL1 {
		m.l1Banks = make([]int64, 8)
	}
	return m
}

// NewTenantMemSystems builds n front-end views of ONE shared memory
// system: a single L2, MSHR file, prefetcher and DRAM backend serve
// every tenant, while each tenant keeps its own L1, vector subsystem
// and scalar path (mirroring one core per requestor). Tenant i's
// Timing carries Tenant=i, so every request it creates is stamped with
// its requestor (dram.Request.Tenant) all the way into the backend —
// which is what bounds n at dram.MaxTenants. Tenant 0's view is
// NewMemSystem's, so a 1-tenant system is the single-requestor system,
// bit for bit.
//
// vmsys, when non-nil, gives tenant i the virtual address space
// vmsys.Space(i): real per-tenant address spaces over one shared
// physical pool, replacing the tenant<<32 window rebasing.
func NewTenantMemSystems(kind MemKind, tim vmem.Timing, lanes int, bankL1 bool, n int, vmsys *vm.VM) []*MemSystem {
	if n < 1 || n > dram.MaxTenants {
		panic(fmt.Sprintf("core: tenant count must be 1..%d (got %d)", dram.MaxTenants, n))
	}
	if vmsys != nil {
		if vmsys.N() < n {
			panic(fmt.Sprintf("core: %d tenants over a %d-space VM", n, vmsys.N()))
		}
		tim.VA = vmsys.Space(0)
	}
	mems := make([]*MemSystem, n)
	mems[0] = NewMemSystem(kind, tim, lanes, bankL1)
	for i := 1; i < n; i++ {
		t := mems[0].Tim // the shared half: L2 below, MSHR file, prefetcher, backend
		t.Tenant = i
		if vmsys != nil {
			t.VA = vmsys.Space(i)
		}
		mems[i] = newFrontEnd(kind, t, lanes, bankL1, mems[0].L2)
	}
	return mems
}

// NewVM builds the address-translation layer for n requestors: the
// default 4-level/4 KiB configuration under the named placement policy
// ("first", "color" or "colo"), colored by the backend's channel
// decode. Coloring is refused where it would be first-fit under another
// name: on a backend with no channel decode (the flat one) or a single
// channel, and on a mapping whose channel bits all lie inside the page
// offset, where every page starts on channel 0 and each page asked for
// on another channel costs a scan of the whole pool before falling back
// to first-fit.
func NewVM(policy string, n int, backend dram.Backend) (*vm.VM, error) {
	pol, err := vm.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg := vm.DefaultConfig()
	cfg.Policy = pol
	var cm vm.ChannelMapper
	if sd, ok := backend.(vm.ChannelMapper); ok {
		cm = sd
	}
	if pol == vm.PolicyColor {
		if cm == nil || cm.ChannelCount() < 2 {
			return nil, fmt.Errorf("-va color places pages by DRAM channel, but this backend has a single channel (-dram fixed, or -dchan 1), so coloring would be first-fit: give -dram sdram with two or more channels")
		}
		// The channel decode is a bit field: address bit b is a channel
		// bit exactly when it alone decodes to a channel other than 0.
		below := 0
		for b := range cfg.PageBits {
			if cm.ChannelOf(1<<b) != 0 {
				below++
			}
		}
		if n := cm.ChannelCount(); n>>below == 1 {
			return nil, fmt.Errorf("-va color places pages by DRAM channel, but this mapping selects all %d channels with address bits inside the %d KiB page, so every page starts on channel 0: give a mapping with channel bits above the page, such as -dmap bank on the ddr profile or -dmap row",
				n, 1<<cfg.PageBits>>10)
		}
	}
	return vm.New(cfg, n, cm), nil
}

// ScalarAccess schedules one scalar or μSIMD memory access issued at
// cycle t. The int64 is the cycle the access clears the L1/L2 pipeline
// (final for hits and stores); the Pending handle, when non-nil,
// tracks a main-memory line fill still outstanding in the MSHR file.
// in is read during the call and not retained.
func (m *MemSystem) ScalarAccess(in *isa.Inst, t int64) (int64, *vmem.Pending) {
	if m.Kind == MemIdeal {
		return t + 1, nil
	}
	// The whole scalar access (at most 8 bytes on this path) translates
	// by its first byte; the issue stage already charged any TLB stall.
	addr := m.Tim.Xl(in.Addr)
	if m.l1Banks != nil {
		bank := (addr >> 3) % uint64(len(m.l1Banks))
		if m.l1Banks[bank] > t {
			t = m.l1Banks[bank]
		}
		m.l1Banks[bank] = t + 1
	}
	if in.IsStore {
		// Write-through, no-allocate; the write buffer hides latency.
		m.L1.Access(addr, true, false)
		return t + 1, nil
	}
	if m.L1.Access(addr, false, false).Hit {
		return t + m.L1.Config().Latency, nil
	}
	m.ScalarL2Accesses++
	done := t + m.L1.Config().Latency + m.Tim.L2Latency
	res := m.L2.Access(addr, false, true)
	if res.Hit {
		if res.Prefetched {
			// The line was prefetched: the load may still be waiting on
			// the in-flight fill, and the touch trains the stream table.
			m.scalarPF = append(m.scalarPF[:0],
				vmem.PFTouch{Line: m.L2.LineAddr(addr), At: done, Tenant: uint8(m.Tim.Tenant)})
			return m.Tim.Complete(nil, m.scalarPF, done)
		}
		return done, nil
	}
	// A scalar miss is a one-request batch; a dirty victim evicted
	// by the fill rides along as a posted write-back that never
	// gates the load.
	m.scalarBatch = m.scalarBatch[:0]
	ten := uint8(m.Tim.Tenant)
	m.scalarBatch = append(m.scalarBatch, dram.Request{Addr: addr, At: done, Tenant: ten})
	if res.Writeback {
		m.scalarBatch = append(m.scalarBatch, dram.Request{Addr: res.VictimAddr, Write: true, At: done, Tenant: ten})
	}
	return m.Tim.Complete(m.scalarBatch, m.scalarPF[:0], done)
}

// L2Activity returns total L2 accesses: vector subsystem activity plus
// scalar-side misses (the Table 4 metric).
func (m *MemSystem) L2Activity() uint64 {
	return m.VM.Stats().Accesses + m.ScalarL2Accesses
}

// DRAM returns the main-memory backend shared by the vector and scalar
// paths (dram.Fixed when the Timing named none).
func (m *MemSystem) DRAM() dram.Backend {
	return m.Tim.Backend
}

// MSHR returns the miss-status holding register file, or nil under the
// blocking model (Tim.MSHRs below 2).
func (m *MemSystem) MSHR() *vmem.MSHRFile {
	return m.Tim.MSHR
}

// Prefetcher returns the stream prefetcher attached to the MSHR file,
// or nil when prefetching is off.
func (m *MemSystem) Prefetcher() *vmem.Prefetcher {
	if m.Tim.MSHR == nil {
		return nil
	}
	return m.Tim.MSHR.Prefetcher()
}

// PrefetchStats returns the prefetcher's counters (with the useless-
// eviction count folded in), or the zero value when prefetching is off.
func (m *MemSystem) PrefetchStats() vmem.PrefetchStats {
	if m.Tim.MSHR == nil {
		return vmem.PrefetchStats{}
	}
	return m.Tim.MSHR.PrefetchStats()
}

// Drain submits any misses and write-backs still sitting in the MSHR
// file's pending batch, then has the backend retire the writes it still
// holds posted (the banked controller's write queues), so end-of-run
// statistics account for all traffic the run generated. It is the one
// end-of-run flush: idempotent, and a no-op on a backend with nothing
// to flush.
func (m *MemSystem) Drain() {
	if m.Tim.MSHR != nil {
		m.Tim.MSHR.Drain()
	}
	if b, ok := m.Tim.Backend.(interface{ Flush() }); ok {
		b.Flush()
	}
}
