package dram

import (
	"testing"
	"unsafe"
)

// The tenant rides in the struct's tail padding: widening Request would
// widen every pending batch and write queue in the simulator.
func TestRequestStaysFortyBytes(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Request{}) = %d, want 40", got)
	}
	if MaxTenants-1 != int(^uint8(0)) {
		t.Fatalf("MaxTenants = %d does not match what Request.Tenant holds", MaxTenants)
	}
}

// An out-of-range tenant must land in the TenantMisroute overflow
// counter, not wrap into another tenant's stat shard.
func TestTenantMisrouteFixed(t *testing.T) {
	f := NewFixed(100)
	f.EnableTenantStats(2)
	// Tenant 5 on a 2-shard backend: a %len wrap would alias this into
	// shard 1.
	batch := []Request{{Addr: 0, At: 0, ID: 1, Tenant: 5}}
	if comps := f.Submit(batch); len(comps) != 1 {
		t.Fatalf("Submit returned %d completions, want 1", len(comps))
	}
	if got := f.Stats().TenantMisroute; got != 1 {
		t.Fatalf("TenantMisroute = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		ts := f.TenantStatsOf(i)
		if ts.Reads != 0 || ts.Bytes != 0 {
			t.Fatalf("shard %d recorded the misrouted request: %+v", i, ts)
		}
	}
	// An in-range tenant still routes normally and counts no misroute.
	f.Submit([]Request{{Addr: 64, At: 10, ID: 2, Tenant: 1}})
	if got := f.TenantStatsOf(1).Reads; got != 1 {
		t.Fatalf("shard 1 reads = %d, want 1", got)
	}
	if got := f.Stats().TenantMisroute; got != 1 {
		t.Fatalf("TenantMisroute after an in-range tenant = %d, want 1", got)
	}
}

// The SDRAM controller shares the same routing rule.
func TestTenantMisrouteSDRAM(t *testing.T) {
	s := NewSDRAM(DefaultConfig())
	s.EnableTenantStats(2)
	s.Submit([]Request{{Addr: 0, At: 0, ID: 1, Tenant: 7}})
	s.Flush()
	if got := s.Stats().TenantMisroute; got != 1 {
		t.Fatalf("TenantMisroute = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if ts := s.TenantStatsOf(i); ts.Reads != 0 {
			t.Fatalf("shard %d recorded the misrouted read: %+v", i, ts)
		}
	}
}
