package dram

import (
	"slices"

	"repro/internal/stats"
)

// This file is the controller's policy: which reads may hold a queue
// slot (admission), which pending read a channel serves next (the pick),
// and Submit, which drives both over one batch. The mechanics a decision
// lands on — banks, bus, refresh, row policy, the write queue — are
// sdram.go's; nothing here touches a bank except through service, and
// nothing there decides an order.

// doneSet holds the completion cycles of the reads occupying one share of
// a channel's read queue: all of them (channel.inflight), the speculative
// ones (pfInflight, bounded by PFQCap) or one tenant's (tenInflight[i],
// bounded by the QoS credit). A read leaves its sets when its completion
// cycle passes.
type doneSet []int64

// prune drops the reads that have completed by cycle t.
func (q *doneSet) prune(t int64) {
	live := (*q)[:0]
	for _, done := range *q {
		if done > t {
			live = append(live, done)
		}
	}
	*q = live
}

// live counts the reads still in flight at cycle t.
func (q doneSet) live(t int64) int {
	n := 0
	for _, done := range q {
		if done > t {
			n++
		}
	}
	return n
}

// popEarliest removes the read that completes first and returns its
// completion cycle — the moment a full share frees a slot. The set must
// not be empty.
func (q *doneSet) popEarliest() int64 {
	s := *q
	first := 0
	for i := 1; i < len(s); i++ {
		if s[i] < s[first] {
			first = i
		}
	}
	done := s[first]
	*q = append(s[:first], s[first+1:]...)
	return done
}

// admitRead applies the bounded read queue: completed entries are
// dropped, occupancy is sampled, and the arrival stalls until a slot
// frees when the queue is full. Returns the (possibly delayed) arrival.
func (s *SDRAM) admitRead(c *channel, t0 int64) int64 {
	arrival := t0
	c.inflight.prune(arrival)
	// The arriving request occupies a slot.
	occ := min(len(c.inflight)+1, queueDepth)
	s.st.QueueSum += uint64(occ)
	if occ > s.st.QueueMax {
		s.st.QueueMax = occ
	}
	if len(c.inflight) >= queueDepth {
		arrival = c.inflight.popEarliest()
		s.st.StallCycles += uint64(arrival - t0)
	}
	return arrival
}

// pfUnderCap reports whether the channel could take one more
// speculative read at cycle t without crossing PFQCap — the same
// occupancy bound admitPrefetch enforces, consulted by the pick before
// it lets a speculative read compete.
func (s *SDRAM) pfUnderCap(c *channel, t int64) bool {
	return c.pfInflight.live(t) < PFQCap
}

// admitPrefetch applies the per-channel cap on speculative read-queue
// occupancy: a prefetch arriving while PFQCap prefetch reads are still
// in flight on its channel is deferred until the earliest of them
// completes (counted in PrefetchDeferred), so speculative traffic can
// never crowd demand reads out of more than its share of the bounded
// queue. Crossing the cap also latches the channel into demand-first
// picking for good (see pick). Demand reads pass through untouched.
func (s *SDRAM) admitPrefetch(c *channel, t0 int64) int64 {
	c.pfInflight.prune(t0)
	if len(c.pfInflight) < PFQCap {
		return t0
	}
	s.st.PrefetchDeferred++
	c.demandFirst = true
	for len(c.pfInflight) >= PFQCap {
		t0 = max(t0, c.pfInflight.popEarliest())
	}
	return t0
}

// qosCredit is the per-tenant share of a channel's read queue under
// QoS scheduling: an even split, but never below one slot.
func (s *SDRAM) qosCredit() int {
	return max(queueDepth/s.cfg.Tenants, 1)
}

// credit is the in-flight set of the tenant in slot ten on this channel —
// the load figure both the credit gate and the QoS pick key on — or nil
// when QoS is off or the tenant is a stray (see tenantSlot): a read
// without a set carries no load and is never over its share.
func (c *channel) credit(ten int) *doneSet {
	if ten < 0 || c.tenInflight == nil {
		return nil
	}
	return &c.tenInflight[ten]
}

// serviceRead runs read r, decoded to d, through its channel, including
// queue back-pressure (the prefetch occupancy cap for speculative reads)
// and the bank-level-parallelism sample, and returns its completion
// cycle.
func (s *SDRAM) serviceRead(d decoded, r *Request) int64 {
	c := &s.chans[d.ch]
	t0 := r.At
	if r.speculative() {
		t0 = s.admitPrefetch(c, t0)
	}
	credit := c.credit(d.ten)
	if credit != nil {
		credit.prune(t0)
	}
	arrival := s.admitRead(c, t0)
	s.opportunisticDrain(d.ch, d.bk, arrival)
	// Bank-level parallelism: banks already busy at arrival, across the
	// whole part.
	for ci := range s.chans {
		for b := range s.chans[ci].banks {
			if s.chans[ci].banks[b].freeAt > arrival {
				s.st.BankBusySum++
			}
		}
	}
	done := s.service(d.ch, d.bk, d.row, arrival, r)
	c.inflight = append(c.inflight, done)
	if r.speculative() {
		c.pfInflight = append(c.pfInflight, done)
	}
	if credit != nil {
		*credit = append(*credit, done)
	}
	s.st.ReadWait.Observe(arrival - r.At)
	s.st.ReadService.Observe(done - arrival)
	if ts := s.shard(d.ten); ts != nil {
		ts.Reads++
		ts.Bytes += lineBytes
		if r.speculative() {
			ts.PrefetchReads++
		}
		ts.ReadLatency.Observe(done - r.At)
	}
	if s.tr != nil {
		s.tr.Emit(stats.Event{Cycle: done, Cat: "dram", Name: "complete",
			Addr: r.Addr, ID: r.ID, Lane: d.ch, Tenant: int(r.Tenant)})
	}
	s.st.observe(t0, done)
	return done
}

// candidate is what the pick knows about one pending read in a channel's
// reorder window, most significant field first; the read the pick serves
// is the one no other comes before, the older of two equals. The classic
// demand-aware FR-FCFS pick fills spec and miss, the QoS pick fills
// everything but miss; a field a pick leaves zero decides nothing.
type candidate struct {
	// over: the read's tenant already holds its full queue share in
	// flight (see qosCredit), so the read yields to any under-share
	// candidate and a flooding tenant cannot monopolize the part while a
	// sparse tenant has work waiting.
	over bool
	// spec: a speculative read (a prefetch no demand has merged onto)
	// that demands go ahead of. Prefetches a demand has merged onto
	// (Request.Demanded — the late prefetches whose fills gate
	// instructions) count as demands: deprioritizing them would push
	// back the very completions the pipeline is waiting on.
	spec bool
	// miss: the read's row will not be open when it reaches its bank
	// (under the row policy's pending closes) — first-ready's "ready".
	miss bool
	// ready: the cycle the read's data could be ready, estimated as
	// bank-free time plus the row overhead the access would pay. This
	// matters under multi-tenant interleaving: lockstep requestors at the
	// same kernel position hit the SAME bank with different rows, and
	// serving those conflicts back-to-back in arrival order reserves the
	// channel bus for data that is not ready while other banks sit idle.
	// Picking ready banks first overlaps the conflict streaks instead.
	ready int64
	// load: reads the tenant has in flight on the channel; fewest first.
	load int
}

// before reports whether a is served ahead of b. Both by pointer: a
// candidate is written a field at a time, and copying one by value for
// every window entry waited on those narrow stores (a fifth of
// BenchmarkSubmit).
func (a *candidate) before(b *candidate) bool {
	switch {
	case a.over != b.over:
		return b.over
	case a.spec != b.spec:
		return b.spec
	case a.miss != b.miss:
		return b.miss
	case a.ready != b.ready:
		return a.ready < b.ready
	}
	return a.load < b.load
}

// choice folds a window's candidates, offered oldest first, into the
// position to serve: at, which stays 0 — the oldest read — when the
// window offers nothing.
type choice struct {
	at   int
	best candidate
	any  bool // something was offered
}

// offer considers the candidate at window position i; a tie keeps the
// older read.
func (p *choice) offer(i int, c *candidate) {
	if !p.any || c.before(&p.best) {
		p.at, p.best, p.any = i, *c, true
	}
}

// overShare reports whether read r, decoded to d, belongs to a tenant
// already holding its full QoS credit of the channel's read queue.
func (s *SDRAM) overShare(c *channel, d *decoded, r *Request) (load int, over bool) {
	if q := c.credit(d.ten); q != nil {
		load = q.live(r.At)
	}
	return load, load >= s.qosCredit()
}

// pick chooses which of a channel's pending reads to serve next: it
// builds a candidate for each read of the reorder window (batch indices,
// oldest first) that may compete at all, and folds them into p.
//
// Under QoS every read competes on credit, readiness and load, except a
// speculative read the channel has no PFQCap room for. Otherwise the
// pick is demand-aware FR-FCFS, and who competes turns on the channel's
// demand-first latch (see admitPrefetch). Unlatched — speculative
// occupancy has stayed below PFQCap — speculation is harmless and the
// classic pick runs: the oldest row hit, demand or prefetch alike, else
// the oldest request. Latched, a speculative read competes only as a row
// hit with cap room, behind every demand.
func (s *SDRAM) pick(c *channel, batch []Request, window []int, p *choice) {
	for i, k := range window {
		d, r := &s.dec[k], &batch[k]
		bk := &c.banks[d.bk]
		var cand candidate
		if s.cfg.QoS {
			cand.spec = r.speculative()
			if cand.spec && !s.pfUnderCap(c, r.At) {
				continue
			}
			cand.load, cand.over = s.overShare(c, d, r)
			start := max(r.At, bk.freeAt)
			cand.ready = start + s.peekRowLatency(bk, d.row)
		} else {
			hit := s.rowOpenAt(c, bk, d.row, r.At)
			cand.spec = c.demandFirst && r.speculative()
			if cand.spec && !(hit && s.pfUnderCap(c, r.At)) {
				continue
			}
			cand.miss = !hit
		}
		p.offer(i, &cand)
		if cand == (candidate{}) {
			break // nothing comes before the zero candidate, and a tie keeps the older
		}
	}
}

// scheduleReads services one channel's pending reads, one pick at a
// time: the first candidate (see candidate.before) among the first
// reorderWindow pending requests, the oldest request when the window
// holds none. The pick is a pure reordering — it never delays the read
// it picks, so the channel stays work-conserving. FCFS keeps strict
// arrival order. pend must be sorted by arrival and is consumed.
func (s *SDRAM) scheduleReads(ch int, batch []Request, pend []int) {
	c := &s.chans[ch]
	for len(pend) > 0 {
		var p choice
		if s.cfg.Scheduler == FRFCFS {
			s.pick(c, batch, pend[:min(len(pend), reorderWindow)], &p)
			// Account the QoS yields: every competing over-share read that
			// arrived before an under-share winner gave up this scheduling
			// turn to it — the same read can yield several turns before it
			// is served.
			if s.cfg.QoS && p.any && !p.best.over {
				for _, k := range pend[:p.at] {
					d, r := &s.dec[k], &batch[k]
					if r.speculative() && !s.pfUnderCap(c, r.At) {
						continue
					}
					if _, over := s.overShare(c, d, r); !over {
						continue
					}
					s.st.QoSDeferred++
					if ts := s.shard(d.ten); ts != nil {
						ts.QoSDeferred++
					}
					// Stamp the yielded read's completion with one transfer
					// slot — the turn it gave up — so the requestor's CPI
					// stack can attribute the added wait to QoS rather than
					// raw DRAM service.
					s.comps[k].QoSDelay += s.cfg.TBurst
				}
			}
		}
		if p.at != 0 {
			s.st.Reordered++
		}
		i := pend[p.at]
		pend = append(pend[:p.at], pend[p.at+1:]...)
		s.comps[i].Done = s.serviceRead(s.dec[i], &batch[i])
	}
}

// byArrival orders batch indices by their requests' At, equal arrivals
// keeping batch order. An insertion sort: the lists are one channel's
// share of a batch the MSHR file appended in issue order — short and all
// but sorted — and it neither reflects nor allocates, where the sort
// package's stable slice sort did both, three allocations a call.
func byArrival(idx []int, batch []Request) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && batch[idx[j]].At < batch[idx[j-1]].At; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// Submit implements Backend. The batch fans out across channels; each
// channel schedules its reads through the reorder window (see
// scheduleReads; speculative reads are additionally capped by PFQCap),
// then posts the batch's writes into its write queue.
func (s *SDRAM) Submit(batch []Request) []Completion {
	s.comps = s.comps[:0]
	if len(batch) == 0 {
		return s.comps
	}
	// Every element is overwritten below; Grow's amortised doubling means
	// a run of ever-larger batches reallocates O(log) times, not each time.
	s.comps = slices.Grow(s.comps, len(batch))[:len(batch)]
	s.dec = s.dec[:0]
	s.wOrder = s.wOrder[:0]
	for c := range s.perChan {
		s.perChan[c] = s.perChan[c][:0]
	}

	// Decode every request once — address and tenant — and split it per
	// channel: reads into the channel's pending list, writes into a
	// deferred list. Stable sorting by arrival keeps "oldest"
	// well-defined even when the caller's batch is not time-ordered.
	for i := range batch {
		r := &batch[i]
		ch, bk, row := s.decode(r.Addr)
		s.dec = append(s.dec, decoded{ch: ch, bk: bk, row: row, ten: tenantSlot(r.Tenant, s.tenants, &s.st)})
		s.comps[i] = Completion{Addr: r.Addr, Write: r.Write, At: r.At, Channel: ch, ID: r.ID}
		if s.tr != nil {
			s.tr.Emit(stats.Event{Cycle: r.At, Cat: "dram", Name: "issue",
				Addr: r.Addr, ID: r.ID, Lane: ch, Tenant: int(r.Tenant)})
		}
		switch {
		case r.Write:
			s.wOrder = append(s.wOrder, i)
		default:
			if r.Prefetch {
				s.st.PrefetchReads++
			}
			s.perChan[ch] = append(s.perChan[ch], i)
		}
	}

	// Reads first (read priority), each channel independent.
	for ch := range s.perChan {
		pend := s.perChan[ch]
		byArrival(pend, batch)
		s.scheduleReads(ch, batch, pend)
	}

	// Then the batch's writes, in arrival order.
	byArrival(s.wOrder, batch)
	for _, i := range s.wOrder {
		s.comps[i].Done = s.postWrite(s.dec[i], batch[i])
	}
	return s.comps
}
