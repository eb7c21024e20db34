package core

// This file is the observability seam between the simulator's
// stat-bearing subsystems and internal/stats: one call registers every
// Stats struct a configured memory system owns, and one call fans an
// event tracer out to every subsystem with trace hooks. The registry
// prefixes form the stable naming scheme every exporter shares:
//
//	core.*          pipeline counters (cycles, committed, stalls)
//	cache.l1.*      L1 cache counters
//	cache.l2.*      L2 cache counters
//	vmem.*          vector memory subsystem counters
//	vmem.mshr.*     MSHR file counters + the miss-to-fill histogram
//	vmem.prefetch.* stream prefetcher counters
//	dram.*          main-memory counters + read wait/service histograms
//	vm.tlb.*        TLB counters (l1_* private, l2_* shared) + paging
//	vm.walk.*       page-table walk counters + walk-latency histogram
//
// TestRegistryCoversAllStats (internal/stats) reflects over the Stats
// types and fails if a field ever goes unregistered, so the scheme
// cannot silently drift.

import (
	"repro/internal/dram"
	"repro/internal/stats"
)

// Register wires the core pipeline counters into reg under "core".
func (s *Stats) Register(reg *stats.Registry) {
	reg.AddStruct("core", s)
}

// Register wires every stat struct the memory system owns into reg
// under the package naming scheme. Subsystems the configuration does
// not instantiate (no caches under MemIdeal, no MSHR file in blocking
// mode, no prefetcher) simply contribute no names.
func (m *MemSystem) Register(reg *stats.Registry) {
	m.RegisterShared(reg)
	m.RegisterFrontEnd(reg, "")
}

// RegisterShared wires the structures every requestor shares — L2, MSHR
// file, prefetcher, backend, and the translation layer's L2 TLB and
// walk counters — under their classic names. Call it once per machine,
// on any tenant's view.
func (m *MemSystem) RegisterShared(reg *stats.Registry) {
	if m.L2 != nil {
		reg.AddStruct("cache.l2", &m.L2.Stats)
	}
	if f := m.MSHR(); f != nil {
		reg.AddStruct("vmem.mshr", f.Stats())
		if pf := f.Prefetcher(); pf != nil {
			reg.AddStruct("vmem.prefetch", pf.Stats())
			// Useless is derived from the L2's eviction accounting at
			// read time; sync it into the live struct on every snapshot.
			reg.OnSnapshot(func() { m.PrefetchStats() })
		}
	}
	reg.AddStruct("dram", m.DRAM().Stats())
	if sp := m.Tim.VA; sp != nil {
		sp.VM().RegisterShared(reg)
	}
}

// RegisterFrontEnd wires this requestor's private structures — L1,
// vector subsystem, scalar path, and its address space's L1 TLB and
// fault counters — under prefix: "" for the only requestor (vm.tlb
// then holds the private l1_* beside the shared l2_* fields), and
// "tenant.<i>." for one of several.
func (m *MemSystem) RegisterFrontEnd(reg *stats.Registry, prefix string) {
	if m.L1 != nil {
		reg.AddStruct(prefix+"cache.l1", &m.L1.Stats)
	}
	reg.AddStruct(prefix+"vmem", m.VM.Stats())
	reg.Counter(prefix+"vmem.scalar_l2_accesses", func() uint64 { return m.ScalarL2Accesses })
	if sp := m.Tim.VA; sp != nil {
		sp.Register(reg, prefix+"vm.tlb")
	}
}

// AttachTracer fans one event tracer out to every subsystem with trace
// hooks (the DRAM backend and the MSHR file). A nil tracer detaches —
// the zero-cost default.
func (m *MemSystem) AttachTracer(tr *stats.Tracer) {
	if b, ok := m.DRAM().(dram.Traceable); ok {
		b.SetTracer(tr)
	}
	if f := m.MSHR(); f != nil {
		f.SetTracer(tr)
	}
	if sp := m.Tim.VA; sp != nil {
		sp.VM().SetTracer(tr)
	}
}
