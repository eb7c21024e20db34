package tenant_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/tenant"
)

// recordingBackend passes every batch through to the backend it wraps
// and keeps a copy of each request, in submission order.
type recordingBackend struct {
	dram.Backend
	reqs []dram.Request
}

func (r *recordingBackend) Submit(batch []dram.Request) []dram.Completion {
	r.reqs = append(r.reqs, batch...)
	return r.Backend.Submit(batch)
}

// TestRequestsArriveWithTheirTenant: every request a 4-tenant group sends
// to main memory names the tenant it belongs to, under both miss models.
// Without translation tenant i runs in the address window i<<RebaseShift,
// so a line fill — demand or injected prefetch, whose stream a tenant
// trains inside its own window — must carry its address's tenant. A
// write-back carries the tenant whose fill evicted the line, not the
// line's owner (the L2 is shared): it is born right after that fill's
// request, so it must carry the tenant of the read submitted before it.
func TestRequestsArriveWithTheirTenant(t *testing.T) {
	// Default-size kernels: the small ones fit the L2 and evict nothing
	// dirty. motionsearch brings the write-backs, gsmencode the
	// sequential streams the prefetcher confirms.
	var traces [][]isa.Inst
	for _, name := range []string{"motionsearch", "gsmencode", "motionsearch", "gsmencode"} {
		bm, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("%s missing from the suite", name)
		}
		traces = append(traces, traceOf(bm, kernels.MOM3D))
	}
	for _, spec := range []string{"sdram/line/frfcfs/tn4", "sdram/line/frfcfs/mshr8/pf8d2/tn4"} {
		tim := timingFor(t, spec)
		rec := &recordingBackend{Backend: tim.Backend}
		tim.Backend = rec
		cfg := core.MOMCore()
		g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Tim: tim,
			Lanes: cfg.Lanes, Traces: traces})
		g.Run()

		var reads, prefetches, writebacks int
		var seen [4]bool
		var lastRead *dram.Request
		for i := range rec.reqs {
			r := &rec.reqs[i]
			if r.Write {
				writebacks++
				if lastRead == nil || r.Tenant != lastRead.Tenant || r.Prefetch != lastRead.Prefetch {
					t.Fatalf("%s: write-back %+v does not carry the tenant of the fill that evicted it (%+v)", spec, *r, lastRead)
				}
				continue
			}
			lastRead = r
			if r.Prefetch {
				prefetches++
			} else {
				reads++
			}
			if want := r.Addr >> tenant.RebaseShift; uint64(r.Tenant) != want {
				t.Fatalf("%s: read %+v in tenant %d's window arrived as tenant %d's", spec, *r, want, r.Tenant)
			}
			seen[r.Tenant] = true
		}
		if seen != [4]bool{true, true, true, true} {
			t.Errorf("%s: tenants that reached main memory: %v", spec, seen)
		}
		if reads == 0 || writebacks == 0 || (tim.PFStreams > 0) != (prefetches > 0) {
			t.Errorf("%s: %d reads, %d write-backs, %d prefetches: the run skipped a kind of request the test is for",
				spec, reads, writebacks, prefetches)
		}
	}
}
