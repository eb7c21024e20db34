package vmem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/stats"
)

// refFile is the MSHR file as a test model: plain maps, a fresh entry
// per miss that nothing ever reuses, scans where the file keeps views,
// and handles that keep every entry they waited on and answer from it
// (force) — what MSHRFile did before its handles folded their fills at
// the flush that resolves them and its entries went back to a spare
// list.
type refFile struct {
	be       dram.Backend
	cap      int
	lineMask uint64
	minLat   int64
	live     map[uint64]*refEntry // by line
	byID     map[uint64]*refEntry // the pending batch's reads
	pending  []dram.Request
	nextID   uint64
	span     int
	gen      int
	pf       *Prefetcher
	l2       *cache.Cache
	st       MSHRStats
}

type refEntry struct {
	line, id                                 uint64
	at, done, demandAt, qosDelay             int64
	resolved, prefetch, demanded, classified bool
	tenant                                   uint8
}

type refHandle struct {
	f         *refFile
	entries   []*refEntry
	base      int64
	resolved  bool
	done      int64
	fresh     []uint64
	fullStall int64
	qosTaken  int64
}

func newRefFile(be dram.Backend, n int, pf *Prefetcher, l2 *cache.Cache) *refFile {
	return &refFile{be: be, cap: n, lineMask: cache.L2LineBytes - 1,
		minLat: max(be.MinReadLatency(), 1), live: map[uint64]*refEntry{},
		byID: map[uint64]*refEntry{}, nextID: 1, pf: pf, l2: l2,
		st: MSHRStats{Fill: stats.NewHistogram()}}
}

func (f *refFile) unresolved() (n, pf int) {
	for _, e := range f.live {
		if !e.resolved {
			n++
			if e.prefetch {
				pf++
			}
		}
	}
	return
}

func (f *refFile) free(t int64) {
	for line, e := range f.live {
		if e.resolved && e.done <= t {
			delete(f.live, line)
		}
	}
}

func (f *refFile) newEntry(line uint64, at int64, prefetch bool, tenant uint8) *refEntry {
	e := &refEntry{line: line, id: f.nextID, at: at, prefetch: prefetch, tenant: tenant}
	f.nextID++
	f.live[line] = e
	return e
}

func (f *refFile) flush() {
	if len(f.pending) == 0 {
		return
	}
	f.st.Flushes++
	f.st.FlushedReqs += uint64(len(f.pending))
	f.st.SpanSum += uint64(f.span)
	f.st.SpanMax = max(f.st.SpanMax, f.span)
	for _, c := range f.be.Submit(f.pending) {
		if e := f.byID[c.ID]; !c.Write && e != nil {
			e.qosDelay, e.done, e.resolved = c.QoSDelay, c.Done, true
			f.st.Fill.Observe(c.Done - e.at)
			f.classify(e)
		}
	}
	f.pending = f.pending[:0]
	clear(f.byID)
	f.span = 0
	f.gen++
}

func (f *refFile) classify(e *refEntry) {
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

func (f *refFile) upgrade(e *refEntry) {
	if !e.prefetch || e.resolved {
		return
	}
	for i := range f.pending {
		if f.pending[i].ID == e.id && !f.pending[i].Write {
			f.pending[i].Demanded = true
		}
	}
}

func (f *refFile) allocate(addr uint64, at int64, tenant uint8) (*refEntry, int64) {
	f.free(at)
	if len(f.live) >= f.cap {
		f.st.FullStalls++
		f.flush()
		f.free(at)
		for len(f.live) >= f.cap {
			first := int64(math.MaxInt64)
			for _, e := range f.live {
				first = min(first, e.done) // the flush resolved every one
			}
			if first > at {
				f.st.StallCycles += uint64(first - at)
				at = first
			}
			f.free(at)
		}
	}
	e := f.newEntry(addr&^f.lineMask, at, false, tenant)
	f.st.Allocs++
	occ, _ := f.unresolved()
	f.st.OccSum += uint64(occ)
	f.st.OccMax = max(f.st.OccMax, occ)
	return e, at
}

func (f *refFile) inject(line uint64, at int64, tenant uint8) {
	line &^= f.lineMask
	if f.l2.Contains(line) {
		f.pf.st.Filtered++
		return
	}
	if e := f.live[line]; e != nil && (!e.resolved || e.done > at) {
		f.pf.st.Filtered++
		return
	}
	f.free(at)
	if _, pfLive := f.unresolved(); len(f.live) >= f.cap || pfLive >= max(f.cap/4, 1) {
		f.pf.st.DroppedMSHR++
		return
	}
	if victim, dirty, _ := f.l2.PeekVictim(line); dirty && !f.be.WriteRoom(victim) {
		f.pf.st.DroppedWQ++
		return
	}
	res := f.l2.FillPrefetch(line)
	e := f.newEntry(line, at, true, tenant)
	f.pending = append(f.pending, dram.Request{Addr: line, At: at, ID: e.id, Prefetch: true, Tenant: tenant})
	f.byID[e.id] = e
	if res.Writeback {
		f.pending = append(f.pending, dram.Request{Addr: res.VictimAddr, Write: true, At: at, Prefetch: true, Tenant: tenant})
		f.st.Writebacks++
	}
	f.pf.st.Issued++
}

// complete is Timing.Complete over the model: nil when the instruction
// waits on no entry.
func (f *refFile) complete(batch []dram.Request, touch []PFTouch, occDone int64) *refHandle {
	if len(batch) == 0 && len(touch) == 0 {
		return nil
	}
	p := &refHandle{f: f, base: occDone}
	gen := -1
	contribute := func() {
		if gen != f.gen {
			f.span++
			gen = f.gen
		}
	}
	var train []trainLine
	for _, r := range batch {
		if r.Write {
			f.pending = append(f.pending, r)
			f.st.Writebacks++
			contribute()
			continue
		}
		line := r.Addr &^ f.lineMask
		train = append(train, trainLine{line, r.Tenant})
		if e := f.live[line]; e != nil && (!e.resolved || e.done > r.At) {
			f.st.Merges++
			if e.prefetch && !e.demanded {
				e.classified = true
			}
			f.upgrade(e)
			p.entries = append(p.entries, e)
			continue
		}
		e, at := f.allocate(r.Addr, r.At, r.Tenant)
		p.fullStall += at - r.At
		r.At, r.ID = at, e.id
		f.pending = append(f.pending, r)
		f.byID[e.id] = e
		p.entries = append(p.entries, e)
		p.fresh = append(p.fresh, e.id)
		contribute()
	}
	for _, t := range touch {
		line := t.Line &^ f.lineMask
		train = append(train, trainLine{line, t.Tenant})
		e := f.live[line]
		if e == nil || !e.prefetch {
			f.pf.st.Hits++
			continue
		}
		if !e.demanded {
			e.demanded, e.demandAt = true, t.At
		}
		if e.resolved {
			f.classify(e)
			if e.done > t.At {
				p.entries = append(p.entries, e)
			}
			continue
		}
		f.upgrade(e)
		p.entries = append(p.entries, e)
	}
	for _, t := range train {
		for _, cand := range f.pf.Observe(t.line) {
			f.inject(cand, occDone, t.tenant)
		}
	}
	if len(p.entries) == 0 {
		return nil
	}
	return p
}

func (p *refHandle) force() int64 {
	p.done = p.base
	for _, e := range p.entries {
		p.done = max(p.done, e.done)
	}
	p.resolved = true
	return p.done
}

func (p *refHandle) Bound() (int64, bool) {
	if p == nil {
		return 0, true
	}
	if p.resolved {
		return p.done, true
	}
	lb, exact := p.base, true
	for _, e := range p.entries {
		if e.resolved {
			lb = max(lb, e.done)
		} else {
			lb, exact = max(lb, e.at+p.f.minLat), false
		}
	}
	return lb, exact
}

func (p *refHandle) Settled(now int64) bool {
	if p == nil {
		return true
	}
	if !p.resolved {
		for _, e := range p.entries {
			if !e.resolved {
				return false
			}
		}
		p.force()
	}
	return p.done <= now
}

func (p *refHandle) ReadyBy(now int64) bool {
	if p == nil {
		return true
	}
	if lb, exact := p.Bound(); !exact {
		if now < lb {
			return false
		}
		p.f.flush()
	}
	return p.force() <= now
}

// Done flushes only for an unresolved entry. The file before folding
// also flushed the first time Done met a handle no query had forced,
// with nothing of the handle's own to resolve; its one caller,
// Sim.Finish, does that at the end of a run, where the drain that
// follows would submit the same batch.
func (p *refHandle) Done() int64 {
	if p == nil {
		return 0
	}
	if _, exact := p.Bound(); !exact {
		p.f.flush()
	}
	return p.force()
}

func (p *refHandle) TakeQoSYield(n uint64) uint64 {
	var avail int64
	for _, e := range p.entries {
		if e.resolved {
			avail += e.qosDelay
		}
	}
	t := uint64(max(avail-p.qosTaken, 0))
	t = min(t, n)
	p.qosTaken += int64(t)
	return t
}

func (p *refHandle) TakeFullStall(n uint64) uint64 {
	t := min(uint64(max(p.fullStall, 0)), n)
	p.fullStall -= int64(t)
	return t
}

// TestMSHRFileMatchesReference drives the file and refFile side by side
// — each over its own backend, L2 and prefetcher, built alike — with a
// seeded random instruction mix: streaming and repeated lines (merges,
// onto fills in flight and fills resolved but not yet landed), stores
// (write-backs), bursts wider than the file (full-stalls in the middle
// of an instruction), touches of prefetched lines, and between batches
// random ReadyBy, Bound, Settled, Done, TakeQoSYield and TakeFullStall
// calls on old and new handles alike. Every answer, whether each handle
// is nil, its fresh IDs, and every MSHRStats and PrefetchStats field
// must agree after every call: folding a fill at the flush that
// resolves it, and handing its entry to a later miss, must be invisible.
func TestMSHRFileMatchesReference(t *testing.T) {
	backends := []struct {
		name string
		mk   func() dram.Backend
	}{
		{"fixed", func() dram.Backend { return dram.NewFixed(100) }},
		{"hbm-qos", func() dram.Backend {
			b, _, err := dram.ParseSpecFull("sdram/line/frfcfs/hbm/1ch/tn3/qos", 100)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for _, be := range backends {
		var qos uint64
		for _, mshrs := range []int{2, 8, 64} {
			qos += driveAgainstReference(t, be.name, be.mk, mshrs)
		}
		if be.name == "hbm-qos" && qos == 0 {
			t.Errorf("%s: no QoS-yield cycles were taken: the mix never crossed the qos budget", be.name)
		}
	}
}

// driveAgainstReference runs one file size of TestMSHRFileMatchesReference
// and returns the QoS-yield cycles the handles gave out.
func driveAgainstReference(t *testing.T, name string, mk func() dram.Backend, mshrs int) (qos uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(19990501 + mshrs)))
	pfc := PrefetchConfig{Streams: 8, Degree: 4}
	l2, rl2 := cache.New(cache.L2Config(20)), cache.New(cache.L2Config(20))
	f := NewMSHRFile(mshrTiming(mk()), mshrs)
	f.AttachPrefetcher(NewPrefetcher(pfc, lineB), l2)
	tim := mshrTiming(nil)
	tim.MSHR = f
	ref := newRefFile(mk(), mshrs, NewPrefetcher(pfc, lineB), rl2)

	type pair struct {
		h *Pending
		r *refHandle
	}
	var handles []pair
	now := int64(0)
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s/mshr%d step %d: "+format, append([]any{name, mshrs, step}, args...)...)
	}
	check := func(what string) {
		t.Helper()
		if !reflect.DeepEqual(*f.Stats(), ref.st) {
			fail("after %s: stats %+v, reference %+v", what, *f.Stats(), ref.st)
		}
		ref.pf.st.Useless = rl2.Stats.PrefetchUseless
		if got, want := f.PrefetchStats(), *ref.pf.Stats(); got != want {
			fail("after %s: prefetch stats %+v, reference %+v", what, got, want)
		}
	}
	var streams [16]uint64
	for i := range streams {
		streams[i] = uint64(i) << 20
	}
	var recent []uint64
	for ; step < 3000; step++ {
		// Mostly back to back; now and then a quiet spell in which every
		// fill lands, so even a two-entry file has room for a prefetch.
		now += int64(rng.Intn([]int{40, 400}[rng.Intn(2)]))
		switch k := rng.Intn(16); {
		case k < 7:
			var batch []dram.Request
			var touch []PFTouch
			s := rng.Intn(len(streams))
			store := rng.Intn(4) == 0
			ten := uint8(rng.Intn(3))
			for i, n := 0, 1+rng.Intn([]int{2, 16}[rng.Intn(2)]); i < n; i++ {
				at := now + int64(i)
				if len(recent) > 0 && rng.Intn(6) == 0 {
					// A line filed a while ago, past the L2: a merge while its
					// fill is in flight or resolved but not landed, a fresh
					// miss once it has.
					batch = append(batch, dram.Request{Addr: recent[rng.Intn(len(recent))], At: at, Tenant: ten})
					continue
				}
				addr := streams[s]
				streams[s] = addr + lineB
				res := l2.Access(addr, store, false)
				if rres := rl2.Access(addr, store, false); rres != res {
					fail("the two L2s disagree: %+v vs %+v", res, rres)
				}
				switch {
				case res.Prefetched:
					touch = append(touch, PFTouch{Line: addr, At: at, Tenant: ten})
				case !res.Hit:
					batch = append(batch, dram.Request{Addr: addr, At: at, Tenant: ten})
					recent = append(recent, addr)
					if res.Writeback {
						batch = append(batch, dram.Request{Addr: res.VictimAddr, Write: true, At: at, Tenant: ten})
					}
				}
			}
			if len(recent) > 48 {
				recent = recent[len(recent)-48:]
			}
			_, h := tim.Complete(batch, touch, now+20)
			r := ref.complete(batch, touch, now+20)
			if (h == nil) != (r == nil) {
				fail("Complete returned handle %v, reference %v", h != nil, r != nil)
			}
			if h != nil {
				first, n := h.FreshIDs()
				if n != uint64(len(r.fresh)) || n > 0 && first != r.fresh[0] {
					fail("fresh IDs %d from %d, reference %v", n, first, r.fresh)
				}
				handles = append(handles, pair{h, r})
			}
			check("Complete")
		case k < 15 && len(handles) > 0:
			i := rng.Intn(len(handles))
			p := handles[i]
			switch q := rng.Intn(6); q {
			case 0:
				if got, want := p.h.ReadyBy(now), p.r.ReadyBy(now); got != want {
					fail("ReadyBy(%d) = %v, reference %v", now, got, want)
				}
			case 1:
				gb, ge := p.h.Bound()
				wb, we := p.r.Bound()
				if gb != wb || ge != we {
					fail("Bound = %d, %v; reference %d, %v", gb, ge, wb, we)
				}
			case 2:
				if got, want := p.h.Settled(now), p.r.Settled(now); got != want {
					fail("Settled(%d) = %v, reference %v", now, got, want)
				}
			case 3:
				if got, want := p.h.Done(), p.r.Done(); got != want {
					fail("Done = %d, reference %d", got, want)
				}
				if rng.Intn(2) == 0 {
					handles = append(handles[:i], handles[i+1:]...)
				}
			case 4:
				n := uint64(rng.Intn(200))
				got, want := p.h.TakeQoSYield(n), p.r.TakeQoSYield(n)
				if got != want {
					fail("TakeQoSYield(%d) = %d, reference %d", n, got, want)
				}
				qos += got
			case 5:
				n := uint64(rng.Intn(200))
				if got, want := p.h.TakeFullStall(n), p.r.TakeFullStall(n); got != want {
					fail("TakeFullStall(%d) = %d, reference %d", n, got, want)
				}
			}
			check("a handle query")
		default:
			f.Drain()
			ref.flush()
			check("Drain")
		}
	}
	// A two-entry file is almost never free when a prediction arrives,
	// so only the larger ones must have prefetched lines to touch.
	st, pf := f.Stats(), f.PrefetchStats()
	if st.Merges == 0 || st.FullStalls == 0 || st.Writebacks == 0 || mshrs > 2 && pf.Hits+pf.Late == 0 {
		t.Errorf("%s/mshr%d: the mix missed a path it is there for: %d merges, %d full-stalls, %d write-backs, %d prefetch touches",
			name, mshrs, st.Merges, st.FullStalls, st.Writebacks, pf.Hits+pf.Late)
	}
	return qos
}
