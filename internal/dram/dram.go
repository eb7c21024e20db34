// Package dram models the main memory behind the L2. The seed treated
// every L2 miss as a flat constant; this package replaces that constant
// with a pluggable Backend so the simulator can model a real banked
// SDRAM part: per-bank row-buffer state, open/closed page policies,
// row-hit vs row-miss vs row-conflict timing composed from tRCD/tCAS/tRP
// style parameters, a configurable physical address mapping, a bounded
// per-channel controller queue with FCFS and FR-FCFS scheduling, a
// posted write queue with drain thresholds, and periodic refresh.
//
// Requests reach the controller as transaction batches: a vector memory
// instruction collects all of its L2 line misses (and any dirty-victim
// write-backs) and presents them to Submit together, so the controller
// sees the instruction-level memory parallelism the paper argues media
// kernels expose. Within the visible window (the batch plus anything
// already queued) FR-FCFS genuinely reorders, promoting row hits ahead
// of older row conflicts; batches fan out across channels, each with
// its own queue, scheduler state, write queue and refresh engine, so
// bandwidth scales with channel count. Scheduling remains causal: a
// request is never serviced before its arrival cycle, and requests in
// later batches are never visible to earlier ones.
package dram

import (
	"repro/internal/cache"
	"repro/internal/stats"
)

// lineBytes is the transfer granularity of every backend: one request
// moves one L2 line.
const lineBytes = cache.L2LineBytes

// Request is one main-memory transaction: the line fill (Write false)
// or write-back (Write true) of the L2 line containing Addr, arriving
// at the controller at cycle At. ID is an opaque caller tag (the MSHR
// entry the request belongs to); backends carry it through to the
// matching Completion untouched so completions can be routed back to
// their MSHRs even after the scheduler reorders the batch.
//
// Tenant is the requestor the request belongs to (0 for single-requestor
// traffic), set where the request is born and never rewritten: backends
// key per-tenant statistics and QoS credit on it. It sits in the struct's
// tail padding, so a Request stays 40 bytes.
type Request struct {
	Addr  uint64
	Write bool
	At    int64
	ID    uint64

	// Prefetch marks a request the stream prefetcher injected (a
	// predicted line fill, or the write-back its fill evicted) rather
	// than one a demand miss generated. The statistics keep the two
	// kinds apart, and the channel scheduler deprioritizes speculative
	// reads: within the FR-FCFS window demands go first, and a
	// per-channel occupancy cap (PFQCap) bounds how many
	// prefetch reads may hold queue slots at once.
	//
	// Demanded marks a prefetch a demand access merged onto before the
	// batch was submitted (a late prefetch): its data is already on an
	// instruction's critical path, so the scheduler treats it with full
	// demand priority while the statistics still count it as a
	// prefetch.
	Prefetch bool
	Demanded bool
	Tenant   uint8
}

// speculative reports whether the scheduler should treat the request
// as deprioritizable speculative traffic.
func (r *Request) speculative() bool { return r.Prefetch && !r.Demanded }

// Completion reports the outcome of one Request. Done is the cycle the
// data transfer completes for reads, and the cycle the write is
// accepted into the controller's write queue for writes (posted
// writes: the physical drain happens later and only shows up as bank
// and bus occupancy). Done is always > At. Channel is the channel the
// request decoded to.
type Completion struct {
	Addr    uint64
	Write   bool
	At      int64
	Done    int64
	Channel int
	ID      uint64 // the submitting Request's ID, carried through verbatim

	// QoSDelay is the credit-yield penalty the channel scheduler
	// imposed: cycles this read sat eligible but deferred so an
	// under-share tenant could use the channel. Zero on writes, on the
	// fixed-latency backend, and whenever QoS scheduling is off. The
	// core's CPI stack splits it out of the raw DRAM wait.
	QoSDelay int64
}

// Backend is one main-memory model. Submit schedules a whole batch of
// requests — typically every line miss of one vector instruction — and
// returns their completions in batch order. Backends are stateful:
// bank, queue and write-queue state persists across calls so
// back-to-back batches contend realistically.
//
// The returned slice is owned by the backend and only valid until the
// next Submit call; callers that retain completions must copy them.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Submit services one batch of requests and returns one completion
	// per request, in batch order.
	Submit(batch []Request) []Completion
	// Stats exposes the accumulated counters.
	Stats() *Stats
	// MinReadLatency is a lower bound on Done-At for any read the
	// backend could ever service: no request completes faster than
	// this, whatever the bank, queue and bus state. MSHR bookkeeping
	// uses it to answer "certainly not done yet" without forcing the
	// pending batch to be scheduled early.
	MinReadLatency() int64
	// WriteRoom reports whether a posted write to addr could enter its
	// channel's write queue without crossing the drain threshold. It is
	// advisory — posted writes reach the backend lazily with the next
	// batch, so the queue may have moved by then — and exists so the
	// prefetcher can drop (never stall on) a prefetch whose dirty
	// victim would land on a saturated write queue. Backends without a
	// write queue always have room.
	WriteRoom(addr uint64) bool
}

// Stats aggregates a backend's activity.
type Stats struct {
	Accesses     uint64
	Writes       uint64 // posted writes absorbed by the write queues
	RowHits      uint64 // open-page hit: column access only
	RowMisses    uint64 // bank idle: activate + column access
	RowConflicts uint64 // wrong row open: precharge + activate + column
	Refreshes    uint64 // refresh epochs performed (per channel)
	StallCycles  uint64 // cycles requests waited on a full controller queue
	BusyCycles   uint64 // data-bus busy cycles summed over channels
	Bytes        uint64 // bytes transferred

	// Reordered counts FR-FCFS promotions: a row hit — or, under the
	// demand-aware pick, a demand read ahead of an older prefetch — in
	// the visible window serviced ahead of an older request. WriteDrains counts
	// write-queue drain events; PartialDrains counts the subset that
	// stopped at the low watermark instead of emptying the queue, and
	// OppDrains counts writes retired opportunistically on an idle bus
	// ahead of a read they provably could not delay.
	Reordered     uint64
	WriteDrains   uint64
	PartialDrains uint64
	OppDrains     uint64

	// WriteReadStall accumulates data-bus cycles reads spent waiting
	// behind write bursts (including the read↔write turnaround) — the
	// write-induced read latency the drain policy is tuned against.
	WriteReadStall uint64

	// PrefetchReads counts line fills the stream prefetcher injected
	// (the Prefetch-tagged reads); they are included in Accesses like
	// any other read, so demand reads are Reads() - PrefetchReads.
	// PrefetchDeferred counts the subset the per-channel occupancy cap
	// (PFQCap) held back until an earlier speculative read
	// completed — the demand-priority scheduler's pressure valve.
	PrefetchReads    uint64
	PrefetchDeferred uint64

	// QoSDeferred counts scheduling turns an over-share tenant's read
	// yielded to an under-share tenant's in the QoS window pick
	// (Config.QoS) — the same read can yield several turns before it is
	// served.
	QoSDeferred uint64

	// TenantMisroute counts requests whose Tenant lies outside the
	// per-tenant state the backend keeps (stat shards, QoS credit sets),
	// once each. Such requests are still serviced normally but recorded
	// in no shard and booked against no credit — wrapping them into
	// range would corrupt another tenant's accounting.
	TenantMisroute uint64

	// Row-policy accounting (rowpolicy.go): RowClosedEarly counts rows
	// a policy precharged before a conflict or refresh would have
	// (auto-precharge closes);
	// RowReopened counts the subset the very next access to the bank
	// re-activated — the wasted closes; PredictorFlips counts history-
	// predictor decision changes (a bank crossing between live and
	// dead).
	RowClosedEarly uint64
	RowReopened    uint64
	PredictorFlips uint64

	// QueueSum accumulates the controller-queue occupancy sampled at
	// each read arrival (counting the arriving request); QueueMax
	// is the high-water mark.
	QueueSum uint64
	QueueMax int

	// BankBusySum accumulates, per read, the number of banks already
	// busy when the request arrives — the bank-level parallelism the
	// access stream achieves.
	BankBusySum uint64

	// FirstArrival and LastDone bound the active window used for the
	// achieved-bandwidth figure.
	FirstArrival int64
	LastDone     int64

	// ReadWait and ReadService split each read's latency at the point
	// queue back-pressure ends: wait is the delay from the request's
	// own arrival until the controller admits it (full read queue,
	// prefetch occupancy cap), service is admission to data-transfer
	// completion (row management, refresh, bus contention, burst).
	// Averages hide the tail the paper's bandwidth argument turns on;
	// these keep the distribution.
	ReadWait    *stats.Histogram
	ReadService *stats.Histogram
}

// initHists allocates the latency histograms, once, when NewSDRAM builds
// the part: a controller serves one run and is never reset, so the
// pointers a stats registry holds stay the live ones.
func (s *Stats) initHists() {
	s.ReadWait, s.ReadService = stats.NewHistogram(), stats.NewHistogram()
}

// Traceable is implemented by backends that accept a cycle-stamped
// event tracer. A nil tracer disables tracing (the default).
type Traceable interface {
	SetTracer(t *stats.Tracer)
}

// Reads is the number of read (line-fill) requests serviced.
func (s *Stats) Reads() uint64 { return s.Accesses - s.Writes }

// RowHitRate is row hits per access (0 for an untouched backend, and
// for backends that do not model rows).
func (s *Stats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// AvgQueueOccupancy is the mean controller-queue occupancy observed at
// read arrival.
func (s *Stats) AvgQueueOccupancy() float64 {
	if s.Reads() == 0 {
		return 0
	}
	return float64(s.QueueSum) / float64(s.Reads())
}

// BankLevelParallelism is the mean number of banks already busy when a
// read arrives.
func (s *Stats) BankLevelParallelism() float64 {
	if s.Reads() == 0 {
		return 0
	}
	return float64(s.BankBusySum) / float64(s.Reads())
}

// AchievedBandwidth is bytes transferred per cycle over the window from
// the first arrival to the last completion.
func (s *Stats) AchievedBandwidth() float64 {
	if s.LastDone <= s.FirstArrival {
		return 0
	}
	return float64(s.Bytes) / float64(s.LastDone-s.FirstArrival)
}

// BusUtilization is the fraction of the active window the data buses
// spent bursting, summed over channels (so a two-channel part tops out
// at 2.0). Zero for backends that do not model a bus.
func (s *Stats) BusUtilization() float64 {
	if s.LastDone <= s.FirstArrival {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.LastDone-s.FirstArrival)
}

func (s *Stats) observe(t0, done int64) {
	if s.Accesses == 0 || t0 < s.FirstArrival {
		s.FirstArrival = t0
	}
	if done > s.LastDone {
		s.LastDone = done
	}
	s.Accesses++
	s.Bytes += lineBytes
}

// Fixed is the seed's flat-latency memory: every request completes a
// constant number of cycles after it arrives, with unbounded bandwidth.
// Requests in a batch are independent, so Submit is bit-identical to
// the seed's one-at-a-time model. It is the main memory of every
// machine built without a Backend (core.NewMemSystem), so it is built
// once per simulated cell, as one allocation: the struct holds its two
// histograms and the first backing array of its completions.
type Fixed struct {
	Latency   int64
	st        Stats
	wait, svc stats.Histogram // st.ReadWait, st.ReadService
	tst       []TenantStats
	tr        *stats.Tracer
	comps     []Completion
	buf       [fixedBatch]Completion
}

// fixedBatch is the completion capacity a Fixed starts with: a 16-element
// 3D load on the vector cache missing two lines per element, plus a
// write-back per fill. A larger batch (an MSHR flush) grows comps.
const fixedBatch = 64

// NewFixed returns a flat-latency backend (the seed's 100-cycle DRAM
// when latency is 100).
func NewFixed(latency int64) *Fixed {
	f := &Fixed{Latency: latency}
	f.st.ReadWait, f.st.ReadService, f.comps = &f.wait, &f.svc, f.buf[:0]
	return f
}

// Name implements Backend.
func (f *Fixed) Name() string { return "fixed" }

// Stats implements Backend.
func (f *Fixed) Stats() *Stats { return &f.st }

// MinReadLatency implements Backend: every request takes exactly
// Latency.
func (f *Fixed) MinReadLatency() int64 { return f.Latency }

// WriteRoom implements Backend: the flat model has no write queue, so
// a posted write always has room.
func (f *Fixed) WriteRoom(uint64) bool { return true }

// SetTracer implements Traceable.
func (f *Fixed) SetTracer(t *stats.Tracer) { f.tr = t }

// EnableTenantStats implements TenantAware.
func (f *Fixed) EnableTenantStats(n int) {
	f.tst = make([]TenantStats, n)
	for i := range f.tst {
		f.tst[i].init()
	}
}

// TenantStatsOf implements TenantAware.
func (f *Fixed) TenantStatsOf(i int) *TenantStats { return &f.tst[i] }

// Submit implements Backend: every completion is At + Latency.
func (f *Fixed) Submit(batch []Request) []Completion {
	f.comps = f.comps[:0]
	for _, r := range batch {
		done := r.At + f.Latency
		if r.Write {
			f.st.Writes++
		} else if r.Prefetch {
			f.st.PrefetchReads++
		}
		if !r.Write {
			f.st.ReadWait.Observe(0)
			f.st.ReadService.Observe(f.Latency)
		}
		if slot := tenantSlot(r.Tenant, len(f.tst), &f.st); slot >= 0 {
			ts := &f.tst[slot]
			ts.Bytes += lineBytes
			if r.Write {
				ts.Writes++
			} else {
				ts.Reads++
				if r.Prefetch {
					ts.PrefetchReads++
				}
				ts.ReadLatency.Observe(f.Latency)
			}
		}
		if f.tr != nil {
			ten := int(r.Tenant)
			f.tr.Emit(stats.Event{Cycle: r.At, Cat: "dram", Name: "issue", Addr: r.Addr, ID: r.ID, Tenant: ten})
			f.tr.Emit(stats.Event{Cycle: done, Cat: "dram", Name: "complete", Addr: r.Addr, ID: r.ID, Tenant: ten})
		}
		f.st.observe(r.At, done)
		f.comps = append(f.comps, Completion{Addr: r.Addr, Write: r.Write, At: r.At, Done: done, ID: r.ID})
	}
	return f.comps
}
