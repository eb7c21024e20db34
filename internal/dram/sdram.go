package dram

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Mapping selects how a physical address is decomposed into channel,
// bank and row bits (column bits are the line index within a row).
type Mapping int

const (
	// MapLine interleaves consecutive L2 lines across channels and
	// banks (channel and bank bits just above the line offset):
	// streams spread over every bank, each bank walking one row.
	MapLine Mapping = iota
	// MapBank keeps a whole row's worth of consecutive lines in one
	// bank before rotating to the next channel and bank: maximal
	// row-buffer locality while successive rows still spread out.
	MapBank
	// MapRow fills every row of a bank before touching the next bank
	// (channel and bank bits above the bounded row field): a stream
	// smaller than a bank sees one bank at a time.
	MapRow
)

// String names the mapping as the -dmap flag spells it.
func (m Mapping) String() string {
	switch m {
	case MapLine:
		return "line"
	case MapBank:
		return "bank"
	case MapRow:
		return "row"
	}
	return "?"
}

// ParseMapping resolves a -dmap flag value.
func ParseMapping(s string) (Mapping, error) {
	switch strings.ToLower(s) {
	case "line":
		return MapLine, nil
	case "bank":
		return MapBank, nil
	case "row":
		return MapRow, nil
	}
	return 0, fmt.Errorf("unknown address mapping %q (line, bank, row)", s)
}

// Scheduler selects the controller's request-scheduling policy.
type Scheduler int

const (
	// FCFS issues commands strictly in arrival order: a request's row
	// management waits for the previous request on its channel, and the
	// visible batch is never reordered.
	FCFS Scheduler = iota
	// FRFCFS lets row management start as soon as the target bank is
	// free, overlapping precharge/activate with other banks' bursts,
	// and reorders the visible window: a row hit within the first
	// reorderWindow pending requests of a channel is serviced ahead of
	// older conflicts.
	FRFCFS
)

// String names the scheduler as the -dsched flag spells it.
func (s Scheduler) String() string {
	switch s {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "frfcfs"
	}
	return "?"
}

// ParseScheduler resolves a -dsched flag value.
func ParseScheduler(s string) (Scheduler, error) {
	switch strings.ToLower(s) {
	case "fcfs":
		return FCFS, nil
	case "frfcfs", "fr-fcfs":
		return FRFCFS, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (fcfs, frfcfs)", s)
}

// The controller's queue sizing, the same for every part. wqLow and
// wqIdle won the write-drain study in EXPERIMENTS.md: on write-heavy
// motionsearch reconstruction they shave ~1.4k cycles (ddr), and ~1.9k
// cycles with all write-induced read stall (hbm), off a controller that
// drains the whole queue at the threshold and never on an idle bus.
const (
	queueDepth    = 16 // reads in flight per channel before an arrival waits for a slot
	reorderWindow = 8  // pending reads of a channel the FR-FCFS pick sees
	wqDrain       = 12 // posted writes that start a drain; the queue never holds more
	wqLow         = 4  // writes a threshold drain leaves queued
	wqIdle        = 30 // idle bus cycles after which a read first retires the writes that finish before it
)

// PFQCap bounds how many prefetch-tagged reads may occupy one channel's
// read queue at once: a prefetch arriving at the cap is deferred until
// the earliest in-flight prefetch on its channel completes, so
// speculative traffic can never crowd demand reads out of more than
// half the queue.
const PFQCap = queueDepth / 2

// Config describes one SDRAM part and its controller. All counts must
// be powers of two and all latencies are in CPU cycles; every request
// moves one L2 line (lineBytes).
type Config struct {
	Channels    int // independent channels, each with its own controller shard
	Ranks       int // ranks per channel
	Banks       int // banks per rank
	RowBytes    int // row-buffer size per bank
	RowsPerBank int // rows per bank (bounds the row field of MapRow)

	TRCD   int64 // activate → column command
	TCAS   int64 // column command → first data
	TRP    int64 // precharge
	TBurst int64 // data-bus cycles per line transfer
	TTurn  int64 // bus turnaround penalty when switching read↔write
	TREFI  int64 // refresh interval per channel (0 disables refresh)
	TRFC   int64 // refresh duration (all banks of the channel stall)

	// Tenants is the number of requestors sharing the part (0 or 1 =
	// single requestor; see Request.Tenant). QoS turns on per-tenant
	// credit scheduling in each channel: a tenant's reads are capped at
	// its share of the read queue (queueDepth/Tenants, at least 1) and
	// the FR-FCFS pick services the least-loaded tenant first, so one
	// streaming tenant cannot starve the rest. QoS requires Tenants ≥ 2.
	Tenants int
	QoS     bool

	Mapping   Mapping
	Scheduler Scheduler

	// RowPolicy selects the per-bank row-buffer management policy
	// (rowpolicy.go): static open (the zero value, the historical
	// behaviour), static close, or the 2-bit history live/dead
	// predictor.
	RowPolicy RowPolicy
}

// DefaultConfig is the commodity-DDR preset: a two-channel, two-rank,
// four-bank part whose row-miss service time is comparable to the
// seed's flat 100-cycle DRAM, so row hits run faster than the seed and
// row conflicts slower.
func DefaultConfig() Config {
	return Config{
		Channels: 2, Ranks: 2, Banks: 4,
		RowBytes: 8 << 10, RowsPerBank: 1 << 15,
		TRCD: 30, TCAS: 40, TRP: 30, TBurst: 8, TTurn: 4,
		TREFI: 7800, TRFC: 120,
		Mapping: MapLine, Scheduler: FRFCFS,
	}
}

type bank struct {
	freeAt  int64
	openRow int64
	open    bool

	// lastRow and used feed the policy's training oracle: would the
	// next access have hit the row the bank last used?
	lastRow int64
	used    bool
	// early marks a row the policy precharged before its natural close;
	// the next access checks it to count wasted closes (RowReopened).
	early bool
}

// channel is one controller shard: banks, data bus, command
// serialization point, refresh engine, bounded read queue and posted
// write queue, all independent of every other channel so batches fan
// out and bandwidth scales with channel count.
type channel struct {
	banks       []bank
	busFree     int64   // data bus: one burst at a time
	busWrite    bool    // last burst was a write (turnaround tracking)
	cmdFree     int64   // FCFS: command issue serialization point
	nextRefresh int64   // next refresh epoch boundary
	inflight    doneSet // queued reads
	pfInflight  doneSet // queued speculative reads (PFQCap)
	// demandFirst is the demand-first latch: once set, the pick keeps
	// demands ahead of speculation for the rest of the run.
	demandFirst bool
	tenInflight []doneSet // QoS: queued reads per tenant
	writeQ      []Request // posted writes awaiting a threshold drain
}

// decoded caches what Submit works out once per batch request: the
// address decomposition, and the tenant's slot in the per-tenant tables
// (-1 for a stray or a part keeping none; see tenantSlot).
type decoded struct {
	ch  int
	bk  int
	row int64
	ten int
}

// SDRAM is the banked controller model.
type SDRAM struct {
	cfg   Config
	chans []channel
	hist  []uint8 // history policy: a 2-bit counter per global bank (nil otherwise)
	st    Stats
	tst   []TenantStats // per-requestor shards (nil = off)

	// tenants is how many requestors the part keeps per-tenant state
	// for — stat shards, QoS credit sets — and so the n every request's
	// Tenant is bounds-checked against (tenantSlot); 0 = none.
	tenants int

	lineShift, colBits, rowBits, chanBits, bankBits uint

	tr *stats.Tracer // event tracing (nil = off)

	// Per-Submit scratch, reused across calls.
	comps   []Completion
	dec     []decoded
	perChan [][]int // pending read batch indices per channel
	wOrder  []int   // write batch indices
}

// Validate refuses a configuration no controller can be built from: a
// geometry that is not a power of two, a row shorter than a line, a
// refresh that outlasts its interval, a row policy no name spells, a
// negative tenant count, QoS with fewer than two tenants.
func (cfg *Config) Validate() error {
	for _, g := range []struct {
		name string
		n    int
	}{
		{"channels", cfg.Channels}, {"ranks", cfg.Ranks}, {"banks", cfg.Banks},
		{"row bytes", cfg.RowBytes}, {"rows per bank", cfg.RowsPerBank},
	} {
		if g.n <= 0 || g.n&(g.n-1) != 0 {
			return fmt.Errorf("dram: %s %d not a power of two", g.name, g.n)
		}
	}
	switch {
	case cfg.RowBytes < lineBytes:
		return fmt.Errorf("dram: row of %d bytes smaller than a %d-byte line", cfg.RowBytes, lineBytes)
	case cfg.TREFI > 0 && cfg.TRFC >= cfg.TREFI:
		return fmt.Errorf("dram: refresh duration %d must be shorter than the refresh interval %d", cfg.TRFC, cfg.TREFI)
	case cfg.RowPolicy > RowHistory:
		return fmt.Errorf("dram: unknown row policy %d", cfg.RowPolicy)
	case cfg.Tenants < 0:
		return fmt.Errorf("dram: tenant count %d is negative", cfg.Tenants)
	case cfg.QoS && cfg.Tenants < 2:
		return errors.New("dram: qos scheduling needs at least two tenants")
	}
	return nil
}

// NewSDRAM builds a controller from a configuration that Validate
// accepts; Selection.Build, which every entry point ends in, checks it.
func NewSDRAM(cfg Config) *SDRAM {
	s := &SDRAM{
		cfg:       cfg,
		lineShift: log2(lineBytes),
		colBits:   log2(cfg.RowBytes / lineBytes),
		rowBits:   log2(cfg.RowsPerBank),
		chanBits:  log2(cfg.Channels),
		bankBits:  log2(cfg.Ranks * cfg.Banks),
	}
	if cfg.QoS {
		s.tenants = cfg.Tenants
	}
	if cfg.RowPolicy == RowHistory {
		s.hist = make([]uint8, cfg.Channels*cfg.Ranks*cfg.Banks)
		for i := range s.hist {
			s.hist[i] = historyInit
		}
	}
	s.chans = make([]channel, cfg.Channels)
	for c := range s.chans {
		s.chans[c] = channel{
			banks:       make([]bank, cfg.Ranks*cfg.Banks),
			nextRefresh: cfg.TREFI,
			inflight:    make(doneSet, 0, queueDepth),
			pfInflight:  make(doneSet, 0, queueDepth),
			writeQ:      make([]Request, 0, wqDrain),
		}
		if cfg.QoS {
			s.chans[c].tenInflight = make([]doneSet, cfg.Tenants)
		}
	}
	s.perChan = make([][]int, cfg.Channels)
	s.st.initHists()
	return s
}

// globalBank is the part-wide bank index the history counters and the
// trace lanes are keyed by.
func (s *SDRAM) globalBank(ch, bk int) int {
	return ch*s.cfg.Ranks*s.cfg.Banks + bk
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// Name implements Backend.
func (s *SDRAM) Name() string {
	return fmt.Sprintf("sdram(%s,%s,%s)", s.cfg.Mapping, s.cfg.Scheduler, s.cfg.RowPolicy)
}

// Stats implements Backend.
func (s *SDRAM) Stats() *Stats { return &s.st }

// MinReadLatency implements Backend: even a row hit on an idle bank
// pays the column access and the data burst.
func (s *SDRAM) MinReadLatency() int64 { return s.cfg.TCAS + s.cfg.TBurst }

// WriteRoom implements Backend: a posted write to addr has room while
// its channel's write queue sits below the drain threshold — posting
// one more would not trigger a drain. Advisory only: posted writes
// arrive with the next lazily-submitted batch, so the queue may have
// drained (or filled) by then.
func (s *SDRAM) WriteRoom(addr uint64) bool {
	ch, _, _ := s.decode(addr)
	return len(s.chans[ch].writeQ)+1 < wqDrain
}

// Config returns the controller's configuration.
func (s *SDRAM) Config() Config { return s.cfg }

// ChannelOf exposes the channel a physical address decodes to under
// the configured mapping; ChannelCount is the part's channel count.
// Together they satisfy vm.ChannelMapper, letting the page-placement
// policies color pages by the channel bits without the vm package
// depending on this one.
func (s *SDRAM) ChannelOf(addr uint64) int {
	ch, _, _ := s.decode(addr)
	return ch
}

// ChannelCount reports the number of independent channels.
func (s *SDRAM) ChannelCount() int { return s.cfg.Channels }

// SetTracer implements Traceable.
func (s *SDRAM) SetTracer(t *stats.Tracer) { s.tr = t }

// EnableTenantStats implements TenantAware: allocate n per-requestor
// stat shards. Recording into them is pure observation — it never
// feeds back into scheduling — so enabling shards preserves timing
// bit-for-bit. Under QoS the part already keeps Config.Tenants credit
// sets; a tenant beyond either table is a stray to both.
func (s *SDRAM) EnableTenantStats(n int) {
	s.tst = make([]TenantStats, n)
	for i := range s.tst {
		s.tst[i].init()
	}
	s.tenants = n
	if s.cfg.QoS {
		s.tenants = min(n, s.cfg.Tenants)
	}
}

// TenantStatsOf implements TenantAware.
func (s *SDRAM) TenantStatsOf(i int) *TenantStats { return &s.tst[i] }

// shard is the stat shard of the tenant in slot ten, nil when sharding
// is off or the tenant is a stray (see tenantSlot).
func (s *SDRAM) shard(ten int) *TenantStats {
	if ten < 0 || s.tst == nil {
		return nil
	}
	return &s.tst[ten]
}

// decode splits addr into channel, bank and row according to the
// configured mapping. The returned row index folds in every bit above
// the fields the mapping consumes, so distinct rows never alias.
func (s *SDRAM) decode(addr uint64) (ch, bk int, row int64) {
	a := addr >> s.lineShift
	take := func(bits uint) uint64 {
		v := a & ((1 << bits) - 1)
		a >>= bits
		return v
	}
	switch s.cfg.Mapping {
	case MapLine:
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		take(s.colBits)
		row = int64(a)
	case MapBank:
		take(s.colBits)
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		row = int64(a)
	case MapRow:
		take(s.colBits)
		row = int64(take(s.rowBits))
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		// Addresses past the part's capacity wrap; fold the remainder
		// into the row index so distinct rows never alias.
		row |= int64(a) << s.rowBits
	}
	return ch, bk, row
}

// refreshUpTo performs every refresh epoch the channel owes before
// cycle t: all banks close their rows and stall for TRFC.
func (s *SDRAM) refreshUpTo(c *channel, t int64) {
	if s.cfg.TREFI <= 0 || t < c.nextRefresh {
		return
	}
	// All k owed epochs land in closed form rather than one loop pass
	// each — long-idle channels (staggered tenants, drained traces) owe
	// thousands. Stepping epoch i sets freeAt = max(freeAt, epoch_i) +
	// TRFC, so the final free time is whichever is later: every TRFC
	// stacked serially on the bank's current backlog, or the last
	// epoch's own TRFC tail (the steady state once the backlog drains —
	// TRFC <= TREFI — while back-to-back epochs, TRFC > TREFI, keep
	// stacking from the first).
	k := (t-c.nextRefresh)/s.cfg.TREFI + 1
	first := c.nextRefresh
	last := first + (k-1)*s.cfg.TREFI
	for b := range c.banks {
		bk := &c.banks[b]
		bk.open = false
		bk.freeAt = max(max(bk.freeAt, first)+k*s.cfg.TRFC, last+s.cfg.TRFC)
	}
	c.nextRefresh = last + s.cfg.TREFI
	s.st.Refreshes += uint64(k)
}

// rowLatency categorizes the access against the bank's row buffer,
// counts it, and returns the row-management latency it pays.
func (s *SDRAM) rowLatency(bk *bank, row int64) int64 {
	switch {
	case bk.open && bk.openRow == row:
		s.st.RowHits++
		return 0
	case !bk.open:
		s.st.RowMisses++
		return s.cfg.TRCD
	default:
		s.st.RowConflicts++
		return s.cfg.TRP + s.cfg.TRCD
	}
}

// burst schedules one data transfer on the channel bus starting no
// earlier than ready, paying the turnaround penalty when the bus
// switches direction, and returns the completion cycle.
func (s *SDRAM) burst(c *channel, ready int64, write bool) int64 {
	busReady := c.busFree
	if c.busWrite != write {
		busReady += s.cfg.TTurn
	}
	if !write && c.busWrite && busReady > ready {
		// The read's data sat ready while the bus finished a write
		// burst (plus the turnaround): write-induced read latency.
		s.st.WriteReadStall += uint64(busReady - ready)
	}
	dataStart := max(ready, busReady)
	done := dataStart + s.cfg.TBurst
	c.busFree = done
	c.busWrite = write
	s.st.BusyCycles += uint64(s.cfg.TBurst)
	return done
}

// service runs one request through the bank and bus of its channel:
// refresh catch-up, row management, column access and data burst,
// leaving the row buffer per the row policy's decision. arrival must already include any queue
// back-pressure; r is the request being served, read for its direction
// and, when tracing, its identity.
func (s *SDRAM) service(ci, bi int, row, arrival int64, r *Request) int64 {
	c := &s.chans[ci]
	s.refreshUpTo(c, arrival)
	bk := &c.banks[bi]
	serviceStart := func() int64 {
		start := max(arrival, bk.freeAt)
		if s.cfg.Scheduler == FCFS {
			start = max(start, c.cmdFree)
		}
		return start
	}
	// A busy bank can carry the service past refresh boundaries the
	// arrival had not reached; those refreshes still close the rows
	// before the request is served.
	catchUp := func() int64 {
		start := serviceStart()
		for s.cfg.TREFI > 0 && start >= c.nextRefresh {
			s.refreshUpTo(c, start)
			start = serviceStart()
		}
		return start
	}
	start := catchUp()
	// Train the policy against the open-page oracle — would this access
	// have hit the row the bank last used? — and account a close the
	// very next access undoes as wasted (the row had to be reopened).
	if bk.used {
		sameRow := row == bk.lastRow
		if bk.early && sameRow {
			s.st.RowReopened++
		}
		if s.train(s.globalBank(ci, bi), sameRow) {
			s.st.PredictorFlips++
		}
	}

	colIssue := start + s.rowLatency(bk, row)
	if s.cfg.Scheduler == FCFS {
		c.cmdFree = colIssue
	}
	done := s.burst(c, colIssue+s.cfg.TCAS, r.Write)
	if s.tr != nil {
		lane := s.globalBank(ci, bi)
		ten := int(r.Tenant)
		if colIssue > start {
			s.tr.Emit(stats.Event{Cycle: start, Dur: colIssue - start, Cat: "dram", Name: "activate",
				Addr: r.Addr, ID: r.ID, Lane: lane, Tenant: ten})
		}
		s.tr.Emit(stats.Event{Cycle: colIssue, Dur: s.cfg.TCAS, Cat: "dram", Name: "column",
			Addr: r.Addr, ID: r.ID, Lane: lane, Tenant: ten})
		s.tr.Emit(stats.Event{Cycle: done - s.cfg.TBurst, Dur: s.cfg.TBurst, Cat: "dram", Name: "burst",
			Addr: r.Addr, ID: r.ID, Lane: lane, Tenant: ten})
	}

	bk.freeAt = done
	bk.lastRow, bk.used = row, true
	bk.open, bk.openRow, bk.early = true, row, false
	if s.closesAfter(s.globalBank(ci, bi)) {
		// Auto-precharge rides the burst: the bank is busy TRP longer
		// and the next access activates from idle.
		bk.freeAt += s.cfg.TRP
		bk.open, bk.early = false, true
		s.st.RowClosedEarly++
		if s.tr != nil {
			s.tr.Emit(stats.Event{Cycle: done, Cat: "dram", Name: "rp_close", Lane: s.globalBank(ci, bi)})
		}
	}
	return done
}

// drainWrites retires the channel's queued writes oldest-first starting
// no earlier than cycle t, stopping when `keep` remain (0 empties the
// queue; a threshold crossing passes wqLow so it only sheds the queue's
// head instead of serializing a full flush in front of the next reads). Reads keep priority by
// construction: a batch's reads are scheduled before its writes
// enqueue, so drains only delay later traffic through bank and bus
// occupancy.
func (s *SDRAM) drainWrites(ci int, t int64, keep int) {
	c := &s.chans[ci]
	if len(c.writeQ) <= keep {
		return
	}
	s.st.WriteDrains++
	if keep > 0 {
		s.st.PartialDrains++
	}
	n := len(c.writeQ) - keep
	for i := range c.writeQ[:n] {
		w := &c.writeQ[i]
		_, bi, row := s.decode(w.Addr)
		done := s.service(ci, bi, row, max(t, w.At), w)
		// The drain's bus time must stay inside the bandwidth window,
		// or drained bytes would report as transferred in zero cycles.
		if done > s.st.LastDone {
			s.st.LastDone = done
		}
	}
	c.writeQ = append(c.writeQ[:0], c.writeQ[n:]...)
}

// peekRowLatency is rowLatency without the statistics side effects,
// used to estimate a write's service time before committing to it.
func (s *SDRAM) peekRowLatency(bk *bank, row int64) int64 {
	switch {
	case bk.open && bk.openRow == row:
		return 0
	case !bk.open:
		return s.cfg.TRCD
	default:
		return s.cfg.TRP + s.cfg.TRCD
	}
}

// opportunisticDrain retires queued writes on a bus that has sat idle
// for at least wqIdle cycles before a read arriving at `arrival`, but
// only writes that cannot take the read's service slot: a write to the
// read's own bank is never drained here (it would disturb the bank's
// row buffer and turn the read's row hit into a conflict), and every
// drained write's data burst plus the turnaround back to reads must be
// estimated to complete by the arrival (a refresh epoch landing
// between the estimate and the service can still nudge it; that is the
// same exposure the threshold drain accepts). Writes retire
// oldest-first and the scan stops at the first write that does not
// fit, keeping queue order intact.
func (s *SDRAM) opportunisticDrain(ci int, readBank int, arrival int64) {
	c := &s.chans[ci]
	if len(c.writeQ) == 0 || c.busFree+wqIdle > arrival {
		return
	}
	kept := c.writeQ[:0]
	for i := range c.writeQ {
		w := &c.writeQ[i]
		_, bi, row := s.decode(w.Addr)
		if bi == readBank {
			kept = append(kept, c.writeQ[i:]...)
			break
		}
		bk := &c.banks[bi]
		colStart := max(w.At, bk.freeAt)
		if s.cfg.Scheduler == FCFS {
			colStart = max(colStart, c.cmdFree)
		}
		colIssue := colStart + s.peekRowLatency(bk, row)
		busReady := c.busFree
		if !c.busWrite { // switching read→write pays the turnaround
			busReady += s.cfg.TTurn
		}
		dataStart := max(colIssue+s.cfg.TCAS, busReady)
		if dataStart+s.cfg.TBurst+s.cfg.TTurn > arrival {
			kept = append(kept, c.writeQ[i:]...)
			break
		}
		done := s.service(ci, bi, row, w.At, w)
		if done > s.st.LastDone {
			s.st.LastDone = done
		}
		s.st.OppDrains++
	}
	c.writeQ = kept
}

// postWrite absorbs write w, decoded to d, into its channel's write
// queue and returns its acceptance cycle. Reaching the drain threshold
// retires writes down to the low watermark.
func (s *SDRAM) postWrite(d decoded, w Request) int64 {
	c := &s.chans[d.ch]
	ack := w.At + 1 // posted: the queue accepts it next cycle
	c.writeQ = append(c.writeQ, w)
	s.st.Writes++
	if ts := s.shard(d.ten); ts != nil {
		ts.Writes++
		ts.Bytes += lineBytes
	}
	s.st.observe(w.At, ack)
	if len(c.writeQ) >= wqDrain {
		s.drainWrites(d.ch, ack, wqLow)
	}
	return ack
}

// rowOpenAt reports whether the bank's row buffer still holds row when
// a request arriving at cycle at reaches it: the row must be open and
// no refresh epoch may close it first.
func (s *SDRAM) rowOpenAt(c *channel, bk *bank, row, at int64) bool {
	return bk.open && bk.openRow == row && (s.cfg.TREFI == 0 || at < c.nextRefresh)
}

// Flush drains every channel's write queue at its current bus-free
// cycle, so end-of-run statistics account for all posted traffic.
func (s *SDRAM) Flush() {
	for ci := range s.chans {
		s.drainWrites(ci, s.chans[ci].busFree, 0)
	}
}
