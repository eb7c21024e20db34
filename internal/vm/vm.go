// Package vm gives each requestor a virtual address space: a
// multi-level forward-mapped page table, a two-level TLB (a private L1
// TLB per space over a shared L2 TLB), and a physical page pool whose
// pages are placed under a pluggable policy — first-fit, page coloring
// that spreads a tenant's pages round-robin across DRAM channels, or
// deliberate co-location that keeps a tenant's pages physically
// contiguous for row-hit locality. Pages are claimed on first touch and
// never freed: a machine runs once and is dropped, so nothing unmaps a
// page or shoots a translation down.
//
// Timing rides the issue stage: before a memory instruction may issue,
// every page it touches must translate. L1 TLB hits are free (the
// lookup overlaps decode), L2 hits charge a fixed penalty, and misses
// start a page-table walk of Levels × WalkLat cycles; the instruction
// stalls in its issue queue until the slowest page resolves. Walks to
// the same page coalesce, and a first touch claims the page right
// there (a demand-zero fault).
//
// The model is engine-agnostic by construction: Ready is an idempotent
// transaction keyed by the instruction's sequence number, so the
// per-cycle oracle (which re-polls a stalled instruction every cycle)
// and the event wheel (which re-polls only at wake-ups) observe
// identical TLB state transitions — each instruction touches LRU state
// exactly once, at its first Ready call. A transaction is held as its
// ready cycle alone; the pages it touches are recomputed from the
// instruction when it retires, so a warmed space allocates nothing.
package vm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/stats"
)

// Policy selects where the allocator places a tenant's next page.
type Policy int

const (
	// PolicyFirstFit takes the lowest free physical page.
	PolicyFirstFit Policy = iota
	// PolicyColor spreads each space's pages round-robin across DRAM
	// channels: page k goes to the lowest free page on channel
	// (tenant+k) mod channels, so no tenant camps on one channel.
	PolicyColor
	// PolicyColocate keeps each space's pages physically contiguous
	// (preferring last+1), maximizing row-buffer locality for
	// streaming access at the price of channel imbalance.
	PolicyColocate
)

// ParsePolicy maps the spec/flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "first":
		return PolicyFirstFit, nil
	case "color":
		return PolicyColor, nil
	case "colo":
		return PolicyColocate, nil
	}
	return 0, fmt.Errorf("vm: unknown placement policy %q (want first, color or colo)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyColor:
		return "color"
	case PolicyColocate:
		return "colo"
	}
	return "first"
}

// ChannelMapper exposes a DRAM part's address-to-channel decode to the
// coloring policy. dram.SDRAM satisfies it; a nil mapper (the flat
// backend) degrades coloring to first-fit.
type ChannelMapper interface {
	ChannelOf(addr uint64) int
	ChannelCount() int
}

// Config shapes the translation machinery.
type Config struct {
	PageBits     uint // log2 page size (12 → 4 KiB)
	Levels       int  // page-table depth
	BitsPerLevel uint // radix bits per level

	L1Sets, L1Ways int // private per-space TLB geometry
	L2Sets, L2Ways int // shared TLB geometry

	L2TLBLat int64 // issue-stall cycles on an L1 miss that hits the L2 TLB
	WalkLat  int64 // cycles per page-table level on a full walk

	PhysPages uint64 // physical pool size in pages, from address 0

	Policy Policy
}

// DefaultConfig is the x86-64-shaped default: 4 KiB pages, a 4-level
// 9-bit-radix table, a 32-entry L1 TLB over a 512-entry shared L2 TLB,
// and a 1 GiB physical pool.
func DefaultConfig() Config {
	return Config{
		PageBits: 12, Levels: 4, BitsPerLevel: 9,
		L1Sets: 8, L1Ways: 4, L2Sets: 64, L2Ways: 8,
		L2TLBLat: 4, WalkLat: 20,
		PhysPages: 1 << 18,
	}
}

// TLBStats counts the shared L2 TLB's activity.
type TLBStats struct {
	L2Hits      uint64
	L2Misses    uint64
	L2Evictions uint64
}

// WalkStats counts page-table walks across all spaces. Latency is the
// walk-start to TLB-fill distribution.
type WalkStats struct {
	Walks     uint64 // full walks started (L2 TLB misses)
	Coalesced uint64 // lookups that joined an in-flight walk
	Latency   *stats.Histogram
}

// SpaceStats is one space's private view: L1 TLB activity and paging.
type SpaceStats struct {
	L1Hits      uint64
	L1Misses    uint64
	L1Evictions uint64
	Faults      uint64 // demand-zero page claims
	PagesMapped uint64 // pages mapped (one per fault)
}

// VM owns the machinery shared by every address space: the L2 TLB, the
// physical page pool and the channel geometry the coloring policy
// colors by.
type VM struct {
	cfg    Config
	l2     *TLB
	pool   *pool
	spaces []*Space
	nchan  int
	chanOf func(addr uint64) int
	st     TLBStats
	wst    WalkStats
	tr     *stats.Tracer
}

// New builds a VM with n spaces. cm supplies the DRAM channel decode
// for PolicyColor; nil degrades coloring to first-fit.
func New(cfg Config, n int, cm ChannelMapper) *VM {
	if cfg.PageBits == 0 {
		panic("vm: zero page size")
	}
	if uint(cfg.Levels)*cfg.BitsPerLevel+cfg.PageBits > 63 {
		panic("vm: virtual address wider than 63 bits")
	}
	v := &VM{
		cfg:   cfg,
		l2:    NewTLB(cfg.L2Sets, cfg.L2Ways),
		pool:  newPool(cfg.PhysPages),
		nchan: 1,
	}
	v.wst.Latency = stats.NewHistogram()
	if cm != nil && cm.ChannelCount() > 1 {
		v.nchan = cm.ChannelCount()
		v.chanOf = cm.ChannelOf
	}
	for i := 0; i < n; i++ {
		v.spaces = append(v.spaces, &Space{
			vm:        v,
			tenant:    i,
			pt:        NewPageTable(cfg.Levels, cfg.BitsPerLevel),
			l1:        NewTLB(cfg.L1Sets, cfg.L1Ways),
			walks:     map[uint64]walk{},
			inflight:  map[uint64]int64{},
			nextColor: i % v.nchan,
		})
	}
	return v
}

// N is the space count.
func (v *VM) N() int { return len(v.spaces) }

// Space returns space i (tenant i's address space).
func (v *VM) Space(i int) *Space { return v.spaces[i] }

// Config returns the VM's configuration.
func (v *VM) Config() Config { return v.cfg }

// TLBStats exposes the shared L2 TLB counters.
func (v *VM) TLBStats() *TLBStats { return &v.st }

// WalkStats exposes the walk counters and latency histogram.
func (v *VM) WalkStats() *WalkStats { return &v.wst }

// FreePages reports the pool's unclaimed pages.
func (v *VM) FreePages() uint64 { return v.pool.free }

// SetTracer attaches a cycle-stamped event tracer (nil disables).
func (v *VM) SetTracer(tr *stats.Tracer) { v.tr = tr }

// RegisterShared registers the cross-space stats ("vm.tlb.l2_*",
// "vm.walk.*"); per-space L1/fault stats register via Space.Register.
func (v *VM) RegisterShared(reg *stats.Registry) {
	reg.AddStruct("vm.tlb", &v.st)
	reg.AddStruct("vm.walk", &v.wst)
}

// pageChannel is the DRAM channel a physical page decodes to. With
// channel bits above the page offset (the bank mapping) a page lives
// wholly on one channel and coloring is meaningful; under line
// interleaving every page touches every channel and the policy
// degrades gracefully (channel of the page's first line).
func (v *VM) pageChannel(idx uint64) int {
	if v.chanOf == nil {
		return 0
	}
	return v.chanOf(idx << v.cfg.PageBits)
}

// walk is one in-flight (or completed but not yet observed) page-table
// walk. Completion is processed lazily at the first lookup at or after
// done — both engines observe the fill at the same instruction, so TLB
// state stays bit-identical between them.
type walk struct {
	start, done int64
	ppn         uint64
}

// Space is one requestor's virtual address space.
type Space struct {
	vm     *VM
	tenant int
	pt     *PageTable
	l1     *TLB
	st     SpaceStats

	walks    map[uint64]walk  // page-table walks in flight, by virtual page
	inflight map[uint64]int64 // stalled instructions' ready cycles, by seq (see Ready)

	nextColor int    // PolicyColor: channel for the next page
	lastPage  uint64 // PolicyColocate: last allocated pool page
	haveLast  bool

	// One-entry translate cache: the data path translates every line
	// of a vector access, and consecutive lines share a page.
	xlVPN, xlPPN uint64
	haveXl       bool

	pages []uint64
}

// VM returns the owning VM.
func (sp *Space) VM() *VM { return sp.vm }

// Stats exposes the space's private counters.
func (sp *Space) Stats() *SpaceStats { return &sp.st }

// Register registers the space's counters under prefix (e.g. "vm.tlb"
// for a single requestor, "tenant.2.vm.tlb" for tenant 2).
func (sp *Space) Register(reg *stats.Registry, prefix string) {
	reg.AddStruct(prefix, &sp.st)
}

// l2tag folds the tenant into the shared-TLB tag: two tenants' copies
// of one virtual page are distinct translations.
func (sp *Space) l2tag(vpn uint64) uint64 {
	return vpn | uint64(sp.tenant)<<52
}

// Ready reports the cycle instruction in (sequence number seq) has
// every page translated — the issue stage stalls the instruction until
// then. The first call per seq runs the transaction: it probes the
// TLBs for each page the access touches, starts (or joins) walks for
// the misses, and claims a physical page for each first touch.
// Subsequent calls while stalled are pure time checks; the first call
// at or after the ready cycle retires the transaction and processes
// the walk fills. Idempotence per seq is what keeps the per-cycle and
// event-wheel engines bit-identical. A transaction is its ready cycle
// alone: retirement recomputes the pages from in, so every call for
// one seq must pass the same instruction (the core materialises it
// from the same ROB entry each time). in is only read during the call;
// the core reuses it for its next memory issue.
func (sp *Space) Ready(in *isa.Inst, seq uint64, now int64) int64 {
	ready, stalled := sp.inflight[seq]
	if stalled && now < ready {
		return ready
	}
	sp.pages = pagesOf(in, sp.pages, sp.vm.cfg.PageBits)
	if stalled {
		for _, vpn := range sp.pages {
			if w, live := sp.walks[vpn]; live && w.done <= now {
				sp.finishWalk(vpn, w)
			}
		}
		delete(sp.inflight, seq)
		return ready
	}
	ready = now
	for _, vpn := range sp.pages {
		if t := sp.lookupPage(vpn, now); t > ready {
			ready = t
		}
	}
	if ready > now {
		sp.inflight[seq] = ready
		if sp.vm.tr != nil {
			// Open a walk flow chain for this stalled instruction; the
			// core closes it when the instruction finally issues. The high
			// bit keeps seq-keyed flow IDs out of the MSHR entry-ID space.
			sp.vm.tr.Emit(stats.Event{Cycle: now, Cat: "xlat", Name: "walk", Ph: 's',
				ID: seq | 1<<63, Tenant: sp.tenant})
		}
	}
	return ready
}

// StallUntil is a poll-free peek at an in-flight translation: it
// reports the ready cycle of instruction seq's pending transaction, or
// ok=false when seq has none. It never probes the TLBs or retires the
// transaction, so observers (the CPI classifier) can call it freely.
func (sp *Space) StallUntil(seq uint64) (int64, bool) {
	ready, ok := sp.inflight[seq]
	return ready, ok
}

// InFlight reports whether instruction seq currently has a pending
// translation transaction. Like StallUntil it is a pure peek.
func (sp *Space) InFlight(seq uint64) bool {
	_, ok := sp.inflight[seq]
	return ok
}

// lookupPage resolves one virtual page through the hierarchy and
// returns the cycle its translation is available.
func (sp *Space) lookupPage(vpn uint64, now int64) int64 {
	v := sp.vm
	if w, ok := sp.walks[vpn]; ok {
		if w.done <= now {
			sp.finishWalk(vpn, w)
			return now
		}
		v.wst.Coalesced++
		return w.done
	}
	if _, ok := sp.l1.Lookup(vpn); ok {
		sp.st.L1Hits++
		return now
	}
	sp.st.L1Misses++
	if v.tr != nil {
		v.tr.Emit(stats.Event{Cycle: now, Cat: "vm", Name: "miss",
			Addr: vpn << v.cfg.PageBits, Tenant: sp.tenant})
	}
	if ppn, ok := v.l2.Lookup(sp.l2tag(vpn)); ok {
		v.st.L2Hits++
		if sp.l1.Insert(vpn, ppn) {
			sp.st.L1Evictions++
		}
		return now + v.cfg.L2TLBLat
	}
	v.st.L2Misses++
	ppn := sp.resolve(vpn, now)
	w := walk{start: now, done: now + int64(v.cfg.Levels)*v.cfg.WalkLat, ppn: ppn}
	sp.walks[vpn] = w
	v.wst.Walks++
	if v.tr != nil {
		v.tr.Emit(stats.Event{Cycle: now, Dur: w.done - w.start, Cat: "vm", Name: "walk",
			Addr: vpn << v.cfg.PageBits, Tenant: sp.tenant})
	}
	return w.done
}

// finishWalk fills both TLB levels with a completed walk's translation
// and records its latency.
func (sp *Space) finishWalk(vpn uint64, w walk) {
	v := sp.vm
	if v.l2.Insert(sp.l2tag(vpn), w.ppn) {
		v.st.L2Evictions++
	}
	if sp.l1.Insert(vpn, w.ppn) {
		sp.st.L1Evictions++
	}
	v.wst.Latency.Observe(w.done - w.start)
	if v.tr != nil {
		v.tr.Emit(stats.Event{Cycle: w.done, Cat: "vm", Name: "fill",
			Addr: vpn << v.cfg.PageBits, Tenant: sp.tenant})
	}
	delete(sp.walks, vpn)
}

// resolve looks vpn up in the page table, claiming a page on a miss.
func (sp *Space) resolve(vpn uint64, now int64) uint64 {
	if ppn, ok := sp.pt.Lookup(vpn); ok {
		return ppn
	}
	ppn := sp.allocPage()
	sp.pt.Map(vpn, ppn)
	sp.st.Faults++
	sp.st.PagesMapped++
	if sp.vm.tr != nil {
		sp.vm.tr.Emit(stats.Event{Cycle: now, Cat: "vm", Name: "fault",
			Addr: vpn << sp.vm.cfg.PageBits, Tenant: sp.tenant})
	}
	return ppn
}

// allocPage claims a physical page under the placement policy.
func (sp *Space) allocPage() uint64 {
	v := sp.vm
	var idx uint64
	ok := false
	switch v.cfg.Policy {
	case PolicyColor:
		if v.nchan > 1 {
			want := sp.nextColor
			idx, ok = v.pool.find(func(i uint64) bool { return v.pageChannel(i) == want })
			sp.nextColor = (want + 1) % v.nchan
		}
	case PolicyColocate:
		// March forward from the tenant's home region: first choice is
		// the page right after the last one (contiguous, same row), then
		// the nearest free page above it. Without the forward search,
		// interleaved demand faults from other tenants would steal
		// lastPage+1 constantly and co-location would collapse into
		// global first-fit.
		next := uint64(sp.tenant) * (v.cfg.PhysPages / uint64(len(v.spaces)))
		if sp.haveLast {
			next = sp.lastPage + 1
		}
		if idx, ok = next, v.pool.claim(next); !ok {
			idx, ok = v.pool.find(func(i uint64) bool { return i > next })
		}
	}
	if !ok {
		// kernels.Extended's largest footprint times dram.MaxTenants fits
		// the default pool (TestLargestFootprintFitsThePool): only a bug
		// gets here.
		if idx, ok = v.pool.find(nil); !ok {
			panic("vm: physical page pool exhausted")
		}
	}
	sp.lastPage, sp.haveLast = idx, true
	return idx
}

// Translate maps a virtual address to its physical address. The issue
// stage has already charged the TLB/walk timing via Ready, so the data
// path translates for free; touching an unmapped address here is a
// model bug and panics.
func (sp *Space) Translate(va uint64) uint64 {
	pb := sp.vm.cfg.PageBits
	vpn := va >> pb
	if sp.haveXl && vpn == sp.xlVPN {
		return sp.xlPPN<<pb + va&(1<<pb-1)
	}
	ppn, ok := sp.pt.Lookup(vpn)
	if !ok {
		panic(fmt.Sprintf("vm: data path touched untranslated address %#x (tenant %d)", va, sp.tenant))
	}
	sp.xlVPN, sp.xlPPN, sp.haveXl = vpn, ppn, true
	return ppn<<pb + va&(1<<pb-1)
}

// pagesOf collects the distinct virtual pages instruction in touches.
func pagesOf(in *isa.Inst, dst []uint64, pageBits uint) []uint64 {
	dst = dst[:0]
	add := func(addr uint64, size int) {
		if size < 1 {
			size = 1
		}
		for vpn := addr >> pageBits; vpn <= (addr+uint64(size)-1)>>pageBits; vpn++ {
			seen := false
			for _, p := range dst {
				if p == vpn {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, vpn)
			}
		}
	}
	switch in.Kind {
	case isa.KindScalarMem:
		add(in.Addr, int(in.Imm))
	case isa.KindUSIMDMem:
		add(in.Addr, 8)
	case isa.KindMOMMem:
		for e := 0; e < in.VL; e++ {
			add(in.Addr+uint64(int64(e)*in.Stride), isa.MOMElemBytes)
		}
	case isa.Kind3DLoad:
		for e := 0; e < in.VL; e++ {
			add(in.Addr+uint64(int64(e)*in.Stride), in.Width*8)
		}
	}
	return dst
}
