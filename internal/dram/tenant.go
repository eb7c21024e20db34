package dram

import "repro/internal/stats"

// A request's requestor is a field, Request.Tenant, stamped where the
// request is born and carried through scheduling, reordering and
// completion routing like the address. This file holds what backends key
// on it: the limit of the field, the per-tenant stat shard, and the one
// bounds check every per-tenant table is indexed through.

// MaxTenants is how many requestors Request.Tenant can tell apart. The
// places a tenant count enters (the tenants row of KnobTable, checked by
// Selection.Build for flag and spec alike, and
// core.NewTenantMemSystems) refuse more.
const MaxTenants = 1 << 8

// TenantStats is one requestor's shard of the backend's activity:
// traffic volume, bandwidth and the full read-latency distribution
// (arrival to data completion, so queue back-pressure and QoS deferral
// are included). Shards are pure observation — recording them never
// changes any timing decision.
type TenantStats struct {
	Reads         uint64
	Writes        uint64 // posted writes absorbed by the write queues
	Bytes         uint64 // bytes transferred for this tenant
	PrefetchReads uint64 // reads the prefetcher injected on this tenant's behalf
	QoSDeferred   uint64 // scheduling turns this tenant's reads yielded at its credit

	// ReadLatency is the tenant's end-to-end read-latency histogram
	// (request arrival to burst completion) — the per-tenant view of
	// the shared part's ReadWait+ReadService.
	ReadLatency *stats.Histogram
}

func (t *TenantStats) init() { t.ReadLatency = stats.NewHistogram() }

// tenantSlot is the one bounds check per-tenant state is indexed
// through — the stat shards of both backends and, on the SDRAM, each
// channel's QoS credit sets: tenant's slot among the n a backend keeps
// state for, or -1 for a stray. Backends call it once per request, so a
// stray counts once in st.TenantMisroute; it is then recorded in no
// shard, holds no credit and is charged to no one, where a
// `tenant % n` wrap silently booked it against another tenant. n == 0
// is a backend keeping no per-tenant state: no slot, nothing misrouted.
func tenantSlot(tenant uint8, n int, st *Stats) int {
	if int(tenant) < n {
		return int(tenant)
	}
	if n > 0 {
		st.TenantMisroute++
	}
	return -1
}

// TenantAware is implemented by backends that can shard statistics per
// requestor. EnableTenantStats allocates n shards (indexed by each
// request's Tenant); TenantStatsOf exposes shard i.
type TenantAware interface {
	EnableTenantStats(n int)
	TenantStatsOf(i int) *TenantStats
}
