package vmem

import (
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/stats"
)

// This file implements the non-blocking side of the vector memory
// pipeline: a file of miss-status holding registers (MSHRs) that
// decouples instruction issue from memory completion.
//
// Under the blocking model every Issue call submitted its own miss
// batch to the main memory and returned a final completion time, so
// the controller only ever saw one instruction's parallelism. With an
// MSHR file, Issue registers its line misses and returns immediately
// with a Pending handle; the underlying dram.Backend.Submit happens
// lazily, so one batch spans every instruction that issued since the
// last flush — the inter-instruction memory parallelism the FR-FCFS
// reorder window needs to convert latency into bandwidth.
//
// Lazy submission is sound because the timing backends are
// arrival-stamped, not call-stamped: every dram.Request carries its At
// cycle and the controller never services a request before it, so
// submitting late never changes a request's timing — it only widens
// the window the scheduler may reorder over. Three events force a
// flush: an allocation finding the file full (the MSHR-full stall), a
// consumer needing a completion time that the conservative lower bound
// can no longer rule out, and the end-of-run drain.
//
// The blocking model has no file: it is Timing.SubmitMisses, one Submit
// per instruction, and a file starts at two registers. Every miss goes
// down exactly one of the two paths (Timing.Complete picks by whether a
// file is attached).

// MSHRStats counts the file's activity. MLP and batch spans are the
// headline metrics: how many line misses were outstanding when a new
// one registered, and how many instructions each Submit batch covered.
type MSHRStats struct {
	Allocs     uint64 // primary misses: a new line entered the file
	Merges     uint64 // secondary misses folded into an in-flight line
	Writebacks uint64 // posted write-backs riding the pending batch

	Flushes     uint64 // Submit calls issued by the file
	FlushedReqs uint64 // requests submitted across all flushes
	SpanSum     uint64 // instructions contributing to each flush, summed
	SpanMax     int    // widest instruction span of any single flush

	FullStalls  uint64 // allocations that found every MSHR occupied
	StallCycles uint64 // cycles allocations waited for an MSHR to free

	OccSum uint64 // outstanding (unresolved) entries sampled per alloc
	OccMax int    // high-water mark of outstanding entries

	// Fill is the miss-to-fill latency distribution: primary-miss
	// arrival (after any full-stall) to fill completion, per resolved
	// entry, prefetch fills included.
	Fill *stats.Histogram
}

// MLP is the mean number of line misses outstanding when a new miss
// allocates — the memory-level parallelism the pipeline exposes.
func (s *MSHRStats) MLP() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.OccSum) / float64(s.Allocs)
}

// AvgBatch is the mean Submit batch size.
func (s *MSHRStats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FlushedReqs) / float64(s.Flushes)
}

// AvgSpan is the mean number of instructions contributing requests to
// one Submit batch; above 1 the controller is seeing cross-instruction
// parallelism the blocking model never showed it.
func (s *MSHRStats) AvgSpan() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.SpanSum) / float64(s.Flushes)
}

// mshrEntry tracks one outstanding L2 line miss. A file owns exactly as
// many entries as it has registers, allocated with it: the live set
// never holds more, and free returns each entry it drops to the spare
// list newEntry takes from. Reuse is safe because no handle points at a
// resolved entry — the flush that resolves it folds its fill into every
// handle waiting on it (Pending.settle) — and free only drops resolved
// ones.
type mshrEntry struct {
	line     uint64
	id       uint64
	at       int64 // arrival of the primary miss (after any full-stall)
	done     int64 // valid once resolved
	resolved bool
	tenant   uint8 // the requestor of the miss (dram.Request.Tenant)

	// prefetch marks an entry the stream prefetcher allocated; it
	// holds a real MSHR, on behalf of the tenant whose access trained
	// it, but gates nothing until a demand touches its line.
	// demanded/demandAt record the first demand touch so the
	// fill can be classified PrefetchHit (done <= demandAt) or
	// PrefetchLate once its completion is known; classified keeps the
	// split from double counting.
	prefetch   bool
	demanded   bool
	classified bool
	demandAt   int64

	// qosDelay is the QoS credit-yield penalty the channel scheduler
	// stamped on this fill's completion: cycles the request sat eligible
	// but deferred so another tenant could use the channel. Every handle
	// waiting on the fill folds it into its TakeQoSYield budget.
	qosDelay int64
}

// MSHRFile is the miss-status holding register file shared by the
// vector subsystems and the scalar miss path. It is not safe for
// concurrent use, matching the rest of the simulator.
type MSHRFile struct {
	tim      Timing
	cap      int
	lineMask uint64
	minLat   int64 // lower bound on any read's Done-At

	entries  []*mshrEntry          // live entries, allocation order
	byLine   map[uint64]*mshrEntry // live entries keyed by line address
	pending  []dram.Request        // registered but not yet submitted
	pendByID map[uint64]*mshrEntry // pending read IDs → their entries
	nextID   uint64
	span     int // instructions contributing to the pending batch
	flushGen int // flush generation, for span tracking across mid-instruction flushes

	// Views of entries, kept current by the four places that change it
	// or resolve a member (allocate, injectPrefetch, resolve, free) so
	// that nothing scans the file per miss: the unresolved entries, the
	// unresolved prefetches among them, and the earliest completion among
	// the resolved ones (noDone when none), short of which free has
	// nothing to drop.
	unresolved, pfLive int
	minDone            int64

	// spare holds the entries outside the live set (all of them at
	// first), and handles come from a slab. Their entries windows are cut
	// from windows, an arena of the current flush interval: a window is
	// written while its handle is filed and read until the flush that
	// settles it, so every flush rewinds the arena, cutting the handle
	// Register is filling a fresh window, and the next interval reuses
	// its memory.
	spare      []*mshrEntry
	handleSlab slab[Pending]
	windows    []*mshrEntry

	// The handles that may hold entries, which flush settles: those filed
	// since the last flush that wait on an unresolved fill, and the one
	// Register is filling (nil between calls).
	open     []*Pending
	building *Pending

	// pf/l2 attach the stream prefetcher (AttachPrefetcher): pf turns
	// the demand miss stream into predicted lines, and the file fills
	// them into l2 and injects them into the pending batch. Both nil
	// when prefetching is off.
	pf *Prefetcher
	l2 *cache.Cache

	trainBuf []trainLine // scratch: this Register's training lines

	beforeFlush func() // runs before a flush resolves anything, nil = off

	tr *stats.Tracer // event tracer, nil = off
	st MSHRStats
}

// slabLen is how many elements one slab allocation holds: 256 handles
// are 20 KB.
const slabLen = 256

// noDone is minDone with no resolved entry live.
const noDone = math.MaxInt64

// slab hands out consecutive windows of zeroed elements, one allocation
// per slabLen of them, so the miss path's steady state allocates only
// on refill. Nothing is ever returned to a slab: the core decides how
// long it keeps a handle (the scoreboard polls a graduated
// instruction's handle until its fill lands), so a free list would need
// the reference count the garbage collector already keeps per slab.
type slab[T any] struct{ rest []T }

// take returns the next n elements, with capacity n: appending past
// the window reallocates instead of running into a neighbour's.
func (s *slab[T]) take(n int) []T {
	if len(s.rest) < n {
		s.rest = make([]T, max(n, slabLen))
	}
	w := s.rest[:n:n]
	s.rest = s.rest[n:]
	return w
}

// NewMSHRFile builds a file of n >= 2 MSHRs over the Timing's Backend.
// The tim.MSHR field of the argument is ignored; the file is the thing
// that field points at.
func NewMSHRFile(tim Timing, n int) *MSHRFile {
	if n < 2 {
		panic("vmem: an MSHR file has at least 2 registers; fewer is the blocking model, which has no file (Timing.SubmitMisses)")
	}
	tim.MSHR = nil
	f := &MSHRFile{
		tim:      tim,
		cap:      n,
		lineMask: cache.L2LineBytes - 1,
		minLat:   max(tim.Backend.MinReadLatency(), 1),
		byLine:   map[uint64]*mshrEntry{},
		pendByID: map[uint64]*mshrEntry{},
		nextID:   1, // 0 tags write-backs, which never resolve an entry
		minDone:  noDone,
		spare:    make([]*mshrEntry, n),
	}
	pool := make([]mshrEntry, n)
	for i := range pool {
		f.spare[i] = &pool[i]
	}
	f.st.Fill = stats.NewHistogram()
	return f
}

// SetTracer attaches a cycle-stamped event tracer (nil turns tracing
// off, the default).
func (f *MSHRFile) SetTracer(t *stats.Tracer) { f.tr = t }

// BeforeFlush installs fn (nil = none) to run at the top of every flush
// that has a batch to submit, before any entry resolves. Resolution is
// the one thing a flush changes that a requestor which is not running
// can observe — what it settles into the handles, through Settled and
// TakeQoSYield — so a driver that lets requestors' clocks lag
// (tenant.Group under the wheel) brings them up to the flush cycle here.
func (f *MSHRFile) BeforeFlush(fn func()) { f.beforeFlush = fn }

// resolve settles one entry's fill completion, feeding the
// miss-to-fill histogram and the trace.
func (f *MSHRFile) resolve(e *mshrEntry, done int64) {
	e.done, e.resolved = done, true
	f.unresolved--
	if e.prefetch {
		f.pfLive--
	}
	f.minDone = min(f.minDone, done)
	f.st.Fill.Observe(done - e.at)
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: e.at, Dur: done - e.at, Cat: "mshr", Name: "fill",
			Addr: e.line, ID: e.id, Tenant: int(e.tenant)})
		// Close the entry's causal flow chain at the fill cycle; the
		// core opened it ('s') at the issuing instruction.
		f.tr.Emit(stats.Event{Cycle: done, Cat: "dep", Name: "mem", Ph: 'f',
			ID: e.id, Tenant: int(e.tenant)})
	}
	f.classifyPrefetch(e)
}

// AttachPrefetcher wires a stream prefetcher into the file: l2 is the
// cache the predicted lines fill into (via the normal allocate path,
// dirty victims riding the pending batch as posted write-backs). The
// blocking model has no pending batch for a prefetch to ride, which is
// why the prefetcher attaches to a file and not to a Timing.
func (f *MSHRFile) AttachPrefetcher(p *Prefetcher, l2 *cache.Cache) {
	if p == nil || l2 == nil {
		panic("vmem: AttachPrefetcher needs a prefetcher and an L2")
	}
	f.pf, f.l2 = p, l2
}

// Prefetcher returns the attached stream prefetcher, or nil.
func (f *MSHRFile) Prefetcher() *Prefetcher { return f.pf }

// PrefetchStats returns the prefetcher's counters with the Useless
// count filled in from the L2's eviction accounting (the zero value
// when no prefetcher is attached). The sync writes through to the
// live struct, so a stats registry wrapping the prefetcher's counters
// sees Useless too — core's registration snapshots via this method.
func (f *MSHRFile) PrefetchStats() PrefetchStats {
	if f.pf == nil {
		return PrefetchStats{}
	}
	f.pf.st.Useless = f.l2.Stats.PrefetchUseless
	return *f.pf.Stats()
}

// Cap is the file's MSHR count.
func (f *MSHRFile) Cap() int { return f.cap }

// Stats exposes the accumulated counters.
func (f *MSHRFile) Stats() *MSHRStats { return &f.st }

// free drops entries whose fill has completed by cycle t, returning
// them to the spare list: none while t is short of the earliest
// resolved completion, which is every call but the few that cross one.
func (f *MSHRFile) free(t int64) {
	if t < f.minDone {
		return
	}
	live := f.entries[:0]
	f.minDone = noDone
	for _, e := range f.entries {
		if e.resolved {
			if e.done <= t {
				delete(f.byLine, e.line)
				f.spare = append(f.spare, e)
				continue
			}
			f.minDone = min(f.minDone, e.done)
		}
		live = append(live, e)
	}
	f.entries = live
}

// newEntry takes a spare entry for tenant's miss to line arriving at
// cycle at; the callers' capacity checks guarantee one. IDs come from
// the file's one counter, so they are unique across the tenants sharing
// it.
func (f *MSHRFile) newEntry(line uint64, at int64, prefetch bool, tenant uint8) *mshrEntry {
	n := len(f.spare) - 1
	e := f.spare[n]
	f.spare = f.spare[:n]
	*e = mshrEntry{line: line, id: f.nextID, at: at, prefetch: prefetch, tenant: tenant}
	f.nextID++
	return e
}

// track enters e into the live set.
func (f *MSHRFile) track(e *mshrEntry) {
	f.entries = append(f.entries, e)
	f.byLine[e.line] = e
	f.unresolved++
	if e.prefetch {
		f.pfLive++
	}
}

// flush submits everything pending as one batch, resolves the entries
// the completions belong to (matched by request ID — the scheduler
// reorders the batch, so positional matching would lie) and settles
// every handle waiting on them. Afterwards no handle holds an entry.
func (f *MSHRFile) flush() {
	if len(f.pending) == 0 {
		return
	}
	if f.beforeFlush != nil {
		f.beforeFlush()
	}
	f.st.Flushes++
	f.st.FlushedReqs += uint64(len(f.pending))
	f.st.SpanSum += uint64(f.span)
	if f.span > f.st.SpanMax {
		f.st.SpanMax = f.span
	}
	for _, c := range f.tim.Backend.Submit(f.pending) {
		if c.Write {
			continue
		}
		if e := f.pendByID[c.ID]; e != nil {
			e.qosDelay = c.QoSDelay
			f.resolve(e, c.Done)
		}
	}
	for _, p := range f.open {
		p.settle()
	}
	f.open = f.open[:0]
	f.windows = f.windows[:0]
	if p := f.building; p != nil {
		p.settle()
		p.entries = f.window(cap(p.entries))
	}
	f.pending = f.pending[:0]
	clear(f.pendByID)
	f.span = 0
	f.flushGen++
}

// window cuts an empty entries window with room for n from the arena.
func (f *MSHRFile) window(n int) []*mshrEntry {
	lo := len(f.windows)
	f.windows = slices.Grow(f.windows, n)[:lo+n]
	return f.windows[lo : lo : lo+n]
}

// allocate finds room for tenant's new primary miss arriving at cycle
// at, flushing and then waiting on the oldest fill when the file is
// full, and returns the entry and its (possibly stalled) arrival cycle.
func (f *MSHRFile) allocate(addr uint64, at int64, tenant uint8) (*mshrEntry, int64) {
	f.free(at)
	if len(f.entries) >= f.cap {
		f.st.FullStalls++
		// Resolving the pending batch is the only way to learn when an
		// MSHR frees; the stall then waits for the earliest fill.
		f.flush()
		f.free(at)
		for len(f.entries) >= f.cap {
			// The flush resolved every live entry, so the earliest fill
			// is the view free keeps.
			if tFree := f.minDone; tFree > at {
				f.st.StallCycles += uint64(tFree - at)
				at = tFree
			}
			f.free(at)
		}
	}
	e := f.newEntry(addr&^f.lineMask, at, false, tenant)
	f.track(e)
	f.st.Allocs++
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: at, Cat: "mshr", Name: "alloc", Addr: e.line, ID: e.id, Tenant: int(e.tenant)})
		f.tr.Emit(stats.Event{Cycle: at, Cat: "dep", Name: "mem", Ph: 't',
			ID: e.id, Tenant: int(e.tenant)})
	}
	occ := f.unresolved // already counts the just-tracked entry
	f.st.OccSum += uint64(occ)
	if occ > f.st.OccMax {
		f.st.OccMax = occ
	}
	return e, at
}

// PFTouch records one demand access that hit a prefetched L2 line (the
// cache's Result.Prefetched): Line is the L2 line address, At the cycle
// the access wants its data, Tenant the requestor touching it (as on
// dram.Request). The vmem subsystems collect them per instruction and
// pass them to Complete/Register, which resolves each into the
// PrefetchHit / PrefetchLate split — and, for a fill still in flight,
// merges the instruction onto the prefetch's MSHR entry as a secondary
// miss so the handle waits for the real completion.
type PFTouch struct {
	Line   uint64
	At     int64
	Tenant uint8
}

// trainLine is one demand line about to train the stream table, with the
// tenant the resulting prefetches are filed under.
type trainLine struct {
	line   uint64
	tenant uint8
}

// Register files one instruction's miss batch — line-fill reads and
// posted write-backs, as built by the vmem subsystems — plus its
// demand touches of prefetched lines, and returns the instruction's
// pending-completion handle. occDone is the completion cycle of the
// instruction's port/bank occupancy and cache hits; the handle's Done
// folds it in. Secondary misses to a line already in flight merge into
// its entry instead of re-submitting the line. Every request and touch
// carries its tenant; entries, write-backs and the prefetches the
// instruction trains keep it, so a shared backend can shard stats and
// schedule per tenant.
//
// With a prefetcher attached, the demand lines just filed (misses and
// prefetched-line touches alike) train the stream table, and every
// resulting prediction is injected into the same pending batch —
// after the demands, so a prefetch can never steal an MSHR from the
// instruction that triggered it.
func (f *MSHRFile) Register(batch []dram.Request, pfTouch []PFTouch, occDone int64) *Pending {
	p := &f.handleSlab.take(1)[0]
	p.file, p.base = f, occDone
	// Every read of the batch and every touch holds at most one entry, so
	// the window is never appended past.
	p.entries = f.window(len(batch) + len(pfTouch))
	f.building = p
	// One instruction counts once toward each flush batch it feeds: a
	// mid-instruction flush (MSHR full) starts a new batch, which the
	// rest of the instruction's requests then join.
	gen := -1
	contribute := func() {
		if gen != f.flushGen {
			f.span++
			gen = f.flushGen
		}
	}
	f.trainBuf = f.trainBuf[:0]
	for _, r := range batch {
		if r.Write {
			f.pending = append(f.pending, r)
			f.st.Writebacks++
			contribute()
			continue
		}
		line := r.Addr &^ f.lineMask
		if f.pf != nil {
			f.trainBuf = append(f.trainBuf, trainLine{line, r.Tenant})
		}
		if e := f.byLine[line]; e != nil && (!e.resolved || e.done > r.At) {
			// Secondary miss: the line's fill is already in flight (or
			// has a known future completion); wait on it, do not
			// re-request the line. A demand MISS can only reach a
			// still-live prefetch entry after its line left the L2 —
			// and an untouched prefetched line scores PrefetchUseless
			// at eviction — so this merge must not classify the same
			// issue again (each issued prefetch gets exactly one
			// outcome); it only reuses the in-flight fill's timing.
			f.st.Merges++
			if f.tr != nil {
				f.tr.Emit(stats.Event{Cycle: r.At, Cat: "mshr", Name: "merge", Addr: line, ID: e.id, Tenant: int(r.Tenant)})
			}
			if e.prefetch && !e.demanded {
				e.classified = true
			}
			f.upgradePrefetch(e)
			p.wait(e)
			continue
		}
		e, at := f.allocate(r.Addr, r.At, r.Tenant)
		if at > r.At {
			// The allocation waited on a full file; bank the stall so the
			// CPI classifier can charge the head's wait to MSHRFull
			// before blaming main memory.
			p.fullStall += at - r.At
		}
		r.At, r.ID = at, e.id
		f.pending = append(f.pending, r)
		f.pendByID[e.id] = e
		p.wait(e)
		if p.freshN == 0 {
			p.freshLo = e.id
		}
		p.freshN++
		contribute()
	}
	for _, t := range pfTouch {
		f.touchPrefetched(p, t)
	}
	if f.pf != nil {
		for _, t := range f.trainBuf {
			if f.tr != nil {
				f.tr.Emit(stats.Event{Cycle: occDone, Cat: "pf", Name: "train", Addr: t.line, Tenant: int(t.tenant)})
			}
			for _, cand := range f.pf.Observe(t.line) {
				f.injectPrefetch(cand, occDone, t.tenant)
			}
		}
	}
	f.building = nil
	if len(p.entries) > 0 {
		f.open = append(f.open, p)
	}
	return p
}

// touchPrefetched resolves one demand touch of a prefetched L2 line:
// classify the prefetch (hit when its fill completed by the touch,
// late otherwise) and, while the fill is still outstanding, merge the
// instruction onto the prefetch's MSHR entry so its handle waits. The
// touched line also trains the stream table — a stream the prefetcher
// covers perfectly would otherwise stop missing and go cold.
func (f *MSHRFile) touchPrefetched(p *Pending, t PFTouch) {
	line := t.Line &^ f.lineMask
	if f.pf == nil {
		return
	}
	f.trainBuf = append(f.trainBuf, trainLine{line, t.Tenant})
	e := f.byLine[line]
	if e == nil || !e.prefetch {
		// The fill landed long ago and its entry was recycled.
		f.pf.st.Hits++
		return
	}
	if !e.demanded {
		e.demanded, e.demandAt = true, t.At
	}
	if e.resolved {
		if !e.classified {
			f.classifyPrefetch(e)
		}
		if e.done > t.At {
			p.wait(e)
		}
		return
	}
	// Fill still pending: the classification falls out of the flush
	// that resolves it, and the instruction waits on the entry.
	f.upgradePrefetch(e)
	p.wait(e)
}

// upgradePrefetch promotes a still-pending prefetch fill to demand
// priority: a demand access has merged onto entry e, so its data is on
// an instruction's critical path and the channel scheduler must stop
// treating the request as deprioritizable speculation. No-op once the
// batch holding the request has been submitted.
func (f *MSHRFile) upgradePrefetch(e *mshrEntry) {
	if !e.prefetch || e.resolved {
		return
	}
	for i := range f.pending {
		if f.pending[i].ID == e.id && !f.pending[i].Write {
			f.pending[i].Demanded = true
			return
		}
	}
}

// prefetchQuota bounds how many MSHRs unresolved prefetches may hold
// at once: a quarter of the file (at least one). Demand misses own the
// rest — a dvload can claim 16 entries in one batch, and a file packed
// with speculative fills would turn its allocation into a full-stall,
// making the prefetcher throttle the very pipeline it accelerates.
func (f *MSHRFile) prefetchQuota() int {
	q := f.cap / 4
	if q < 1 {
		q = 1
	}
	return q
}

// classifyPrefetch settles a demanded prefetch entry into the hit/late
// split once its completion time is known.
func (f *MSHRFile) classifyPrefetch(e *mshrEntry) {
	if f.pf == nil || !e.prefetch || !e.demanded || e.classified {
		return
	}
	e.classified = true
	if e.done <= e.demandAt {
		f.pf.st.Hits++
	} else {
		f.pf.st.Late++
	}
}

// injectPrefetch files one predicted line as a prefetch-tagged MSHR
// entry, under the tenant whose access trained it, whose fill request
// joins the pending batch. Prefetches are
// best-effort by design: a line already cached or in flight is
// filtered, and a prediction that would need to stall — no free MSHR,
// or a dirty victim bound for a write queue with no room — is dropped
// on the floor rather than ever back-pressuring the demand pipeline.
func (f *MSHRFile) injectPrefetch(line uint64, at int64, tenant uint8) {
	line &^= f.lineMask
	if f.l2.Contains(line) {
		f.pf.st.Filtered++
		return
	}
	if e := f.byLine[line]; e != nil && (!e.resolved || e.done > at) {
		f.pf.st.Filtered++
		return
	}
	f.free(at)
	if len(f.entries) >= f.cap || f.pfLive >= f.prefetchQuota() {
		f.pf.st.DroppedMSHR++
		if f.tr != nil {
			f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "drop_mshr", Addr: line, Tenant: int(tenant)})
		}
		return
	}
	if victim, dirty, _ := f.l2.PeekVictim(line); dirty && !f.tim.Backend.WriteRoom(victim) {
		f.pf.st.DroppedWQ++
		if f.tr != nil {
			f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "drop_wq", Addr: line, Tenant: int(tenant)})
		}
		return
	}
	res := f.l2.FillPrefetch(line)
	e := f.newEntry(line, at, true, tenant)
	f.track(e)
	f.pending = append(f.pending, dram.Request{Addr: line, At: at, ID: e.id, Prefetch: true, Tenant: tenant})
	f.pendByID[e.id] = e
	if res.Writeback {
		f.pending = append(f.pending, dram.Request{Addr: res.VictimAddr, Write: true, At: at,
			Prefetch: true, Tenant: tenant})
		f.st.Writebacks++
	}
	f.pf.st.Issued++
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "fire", Addr: line, ID: e.id, Tenant: int(tenant)})
		// Prefetch-originated chains start here rather than at a core
		// instruction; the MSHR fill closes them like any demand chain.
		f.tr.Emit(stats.Event{Cycle: at, Cat: "dep", Name: "mem", Ph: 's',
			ID: e.id, Tenant: int(tenant)})
	}
}

// Drain flushes anything still pending; callers then read final
// completion times off their handles' Done.
func (f *MSHRFile) Drain() { f.flush() }

// Pending is the completion handle of one instruction's outstanding
// misses: the issue side returns it, the scoreboard queries it. Handles
// come from the file's slab and are never reused, because the core
// decides how long it keeps one. A handle holds only unresolved
// entries: a fill already resolved when the instruction waits on it is
// folded into base and qos at once, and the flush that resolves the
// rest folds them too (settle), so after any flush the handle holds
// nothing and the file may reuse every entry it drops.
type Pending struct {
	file    *MSHRFile
	entries []*mshrEntry // unresolved fills waited on, in an arena window
	base    int64        // completion so far: occupancy and every fill folded in

	// waits records that the instruction waited on some fill, resolved
	// or not: Timing.Complete returns no handle for one that did not.
	waits bool

	// freshLo and freshN are the IDs of the entries this instruction's
	// primary misses allocated (merged secondary misses excluded), which
	// one Register allocates consecutively — the flow chains the issuing
	// instruction originates.
	freshLo, freshN uint64

	// fullStall and qos are the CPI classifier's stall-attribution
	// budgets: the cycles this instruction's allocations spent waiting on
	// a full MSHR file, and the QoS-yield cycles the channel scheduler
	// stamped on the fills folded in so far (an unresolved fill's penalty
	// is unknown). Both change only at Register and at flush points —
	// never during classification — and drain monotonically, so charging
	// n cycles one at a time and charging them in one bulk call consume
	// identically: the property that keeps the step and wheel engines'
	// CPI stacks bit-identical.
	fullStall, qos int64
}

// wait makes the handle wait on e's fill: it holds e while the fill is
// unresolved and folds it in at once otherwise.
func (p *Pending) wait(e *mshrEntry) {
	p.waits = true
	if e.resolved {
		p.fold(e)
		return
	}
	p.entries = append(p.entries, e)
}

// fold adds a resolved fill to the handle's completion and QoS budget.
func (p *Pending) fold(e *mshrEntry) {
	p.base = max(p.base, e.done)
	p.qos += e.qosDelay
}

// settle folds in every entry the handle holds, which the flush calling
// it has just resolved. The window keeps its capacity, which flush
// re-cuts for the handle Register is still filling.
func (p *Pending) settle() {
	for _, e := range p.entries {
		p.fold(e)
	}
	p.entries = p.entries[:0]
}

// FreshIDs returns the MSHR entry IDs this instruction's primary
// misses allocated, n of them from first on, for originating causal
// flow chains. Merged secondary misses are excluded — their chains
// belong to the instruction that filed the primary miss.
func (p *Pending) FreshIDs() (first, n uint64) { return p.freshLo, p.freshN }

// TakeFullStall consumes up to n cycles of the handle's MSHR
// full-stall budget and returns how many were taken.
func (p *Pending) TakeFullStall(n uint64) uint64 { return take(&p.fullStall, n) }

// TakeQoSYield consumes up to n cycles of the QoS-yield budget the
// channel scheduler stamped on this handle's resolved fills and
// returns how many were taken.
func (p *Pending) TakeQoSYield(n uint64) uint64 { return take(&p.qos, n) }

// take consumes up to n cycles of a stall budget.
func take(budget *int64, n uint64) uint64 {
	if *budget <= 0 {
		return 0
	}
	t := min(uint64(*budget), n)
	*budget -= int64(t)
	return t
}

// Settled reports whether the completion is already known and has
// passed, using only resolved state — it never forces a flush, so it
// is safe to poll every cycle without perturbing batch accumulation.
func (p *Pending) Settled(now int64) bool {
	return p == nil || len(p.entries) == 0 && p.base <= now
}

// ReadyBy reports whether the memory completion is <= now, resolving
// lazily: while the conservative lower bound (Bound) still exceeds now,
// it answers false without scheduling anything; once the bound is
// reached it flushes the file and compares the exact time.
func (p *Pending) ReadyBy(now int64) bool {
	if p == nil {
		return true
	}
	if len(p.entries) > 0 {
		if lb, _ := p.Bound(); now < lb {
			return false
		}
		p.file.flush()
	}
	return p.base <= now
}

// Bound returns a conservative lower bound on the completion cycle
// and whether that bound is exact: each unresolved fill costs at least
// the backend's minimum read latency. For an unresolved handle the
// bound is the first cycle a ReadyBy poll would force a flush, but
// Bound never flushes or resolves anything, so the event-wheel engine
// can schedule wake-ups off it without perturbing batch accumulation.
func (p *Pending) Bound() (int64, bool) {
	if p == nil {
		return 0, true
	}
	lb := p.base
	for _, e := range p.entries {
		lb = max(lb, e.at+p.file.minLat)
	}
	return lb, len(p.entries) == 0
}

// Done forces resolution and returns the exact completion cycle.
func (p *Pending) Done() int64 {
	if p == nil {
		return 0
	}
	if len(p.entries) > 0 {
		p.file.flush()
	}
	return p.base
}
