package dram

import (
	"cmp"
	"slices"
	"testing"
)

// qosTestConfig is the two-tenant contention part: single channel,
// single bank (so every request contends); the 16-deep queue gives each
// of the two tenants an 8-request credit.
func qosTestConfig(qos bool) Config {
	cfg := testConfig()
	cfg.Tenants = 2
	cfg.QoS = qos
	return cfg
}

// starvationBatch is a flooding tenant 0 — a dozen sequential reads
// down one row streak, all arrived at once — with sparse tenant 1's
// single read (a different row) queued behind them. The batch FR-FCFS
// serves worst: every tenant-0 read is a row hit, tenant 1's is the
// lone conflict, so hit-first scheduling starves it.
func starvationBatch() []Request {
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			Addr: uint64(i) * 128,
			At:   0,
			ID:   uint64(i),
		})
	}
	reqs = append(reqs, Request{
		Addr:   1 << 20, // its own row, a guaranteed conflict
		At:     0,
		ID:     100,
		Tenant: 1,
	})
	return reqs
}

// TestQoSUnstarvesSparseTenant: on the starvation batch, the credit
// pick must serve the sparse tenant's read earlier than plain FR-FCFS
// does — once the flooding tenant is past its queue share, its reads
// yield — and the yields must be visible in both the global counter and
// the flooding tenant's shard.
func TestQoSUnstarvesSparseTenant(t *testing.T) {
	batch := starvationBatch()
	sparse := len(batch) - 1

	base := NewSDRAM(qosTestConfig(false))
	baseComps := base.Submit(batch)

	qos := NewSDRAM(qosTestConfig(true))
	qos.EnableTenantStats(2)
	qosComps := qos.Submit(batch)

	if qosComps[sparse].Done >= baseComps[sparse].Done {
		t.Errorf("sparse tenant done at %d under QoS, %d under plain FR-FCFS — QoS must serve it earlier",
			qosComps[sparse].Done, baseComps[sparse].Done)
	}
	if qos.Stats().QoSDeferred == 0 {
		t.Error("no scheduling turns yielded: the credit pick never engaged")
	}
	if got := qos.TenantStatsOf(0).QoSDeferred; got == 0 {
		t.Error("the flooding tenant's shard recorded no yields")
	}
	if got := qos.TenantStatsOf(1).QoSDeferred; got != 0 {
		t.Errorf("the sparse tenant's shard recorded %d yields; it was never over its credit", got)
	}

	// QoS reorders service, it never drops or duplicates it: both runs
	// complete every request and move the same bytes.
	if a, b := base.Stats().Accesses, qos.Stats().Accesses; a != b {
		t.Errorf("accesses diverged: %d vs %d", a, b)
	}
	if a, b := base.Stats().Bytes, qos.Stats().Bytes; a != b {
		t.Errorf("bytes diverged: %d vs %d", a, b)
	}
	for i, c := range qosComps {
		if c.Done <= batch[i].At {
			t.Errorf("req %d: done %d not after arrival %d", i, c.Done, batch[i].At)
		}
	}
}

// TestQoSOffIsBitIdentical: a Tenants-tagged part with QoS off must
// time exactly like the untagged single-requestor part — tagging and
// stat sharding are pure observation.
func TestQoSOffIsBitIdentical(t *testing.T) {
	batch := starvationBatch()

	plain := NewSDRAM(testConfig())
	var untagged []Request
	for _, r := range batch {
		r.Tenant = 0
		untagged = append(untagged, r)
	}
	plainComps := plain.Submit(untagged)

	tagged := NewSDRAM(qosTestConfig(false))
	tagged.EnableTenantStats(2)
	taggedComps := tagged.Submit(batch)

	for i := range batch {
		if plainComps[i].Done != taggedComps[i].Done {
			t.Errorf("req %d: tagged done %d != untagged done %d", i, taggedComps[i].Done, plainComps[i].Done)
		}
	}
	if a, b := plain.Stats().RowHits, tagged.Stats().RowHits; a != b {
		t.Errorf("row hits diverged: %d vs %d", a, b)
	}
	if tagged.Stats().QoSDeferred != 0 {
		t.Error("QoS-off part counted deferrals")
	}
	// The shards still observed the split.
	if tagged.TenantStatsOf(0).Reads != 12 || tagged.TenantStatsOf(1).Reads != 1 {
		t.Errorf("shard reads = %d/%d, want 12/1",
			tagged.TenantStatsOf(0).Reads, tagged.TenantStatsOf(1).Reads)
	}
}

// TestQoSStrayTenantHoldsNoCredit: a read from a tenant the part was not
// sized for is served, counted once in TenantMisroute, and booked against
// nobody — tenants 0 and 1 are picked in the same order and yield the same
// turns whether or not it is in the window. Tenant 0 floods twelve reads,
// four past its credit, ahead of tenant 1's eight. A `tenant % 2` wrap would
// file tenant 5's read as tenant 1's load, push tenant 1's eighth read over
// its credit, and change the turns tenant 0's over-share reads yield.
func TestQoSStrayTenantHoldsNoCredit(t *testing.T) {
	cfg := qosTestConfig(true) // a credit of eight reads per tenant
	var batch []Request
	for i := 0; i < 12; i++ {
		batch = append(batch, Request{Addr: uint64(i) * 128, ID: uint64(i)}) // tenant 0, one row
	}
	for i := 0; i < 8; i++ {
		batch = append(batch, Request{Addr: 1<<20 + uint64(i)*128, ID: uint64(20 + i), Tenant: 1})
	}
	stray := Request{Addr: 6 * 128, ID: 99, Tenant: 5} // oldest in the window, tenant 0's row

	// order is the IDs of tenants 0 and 1 in the order they were served.
	run := func(batch []Request) (order []uint64, s *SDRAM) {
		s = NewSDRAM(cfg)
		s.EnableTenantStats(2)
		comps := append([]Completion(nil), s.Submit(batch)...)
		slices.SortFunc(comps, func(a, b Completion) int { return cmp.Compare(a.Done, b.Done) })
		for _, c := range comps {
			if c.ID != stray.ID {
				order = append(order, c.ID)
			}
		}
		return order, s
	}
	wantOrder, want := run(batch)
	gotOrder, got := run(append([]Request{stray}, batch...))

	if !slices.Equal(gotOrder, wantOrder) {
		t.Errorf("picks moved with a stray read in the window:\n  without %v\n  with    %v", wantOrder, gotOrder)
	}
	if want.Stats().QoSDeferred == 0 {
		t.Fatal("the batch never engaged the credit pick; the test is vacuous")
	}
	if a, b := want.Stats().QoSDeferred, got.Stats().QoSDeferred; a != b {
		t.Errorf("QoSDeferred %d without the stray, %d with it", a, b)
	}
	for i := 0; i < 2; i++ {
		if a, b := want.TenantStatsOf(i).QoSDeferred, got.TenantStatsOf(i).QoSDeferred; a != b {
			t.Errorf("tenant %d yielded %d turns without the stray, %d with it", i, a, b)
		}
		if a, b := want.TenantStatsOf(i).Reads, got.TenantStatsOf(i).Reads; a != b {
			t.Errorf("tenant %d shard counts %d reads without the stray, %d with it", i, a, b)
		}
	}
	if a, b := want.Stats().TenantMisroute, got.Stats().TenantMisroute; a != 0 || b != 1 {
		t.Errorf("TenantMisroute = %d without the stray and %d with it, want 0 and 1", a, b)
	}
}
