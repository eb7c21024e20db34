package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the parallel sweep runner: the sweep driver (sweep.go)
// enumerates a sweep's cells up front, a worker pool simulates the not-yet-memoized ones on
// per-worker runner clones, and the results land in the parent memo in
// input order. Every cell is a pure function of its key (the simulator
// is deterministic and each run owns its backend), so the serial gather
// that follows reads identical values no matter how the pool scheduled
// them — tables and -statsjson output stay byte-stable.

// AutoWorkers resolves a -j flag value: 0 asks for one worker per CPU.
func AutoWorkers(j int) int {
	if j <= 0 {
		return runtime.NumCPU()
	}
	return j
}

// child clones the runner for one worker: the parent's immutable
// benchmark descriptors and its trace store (so the pool holds one copy
// of each stream, generated once), a private memo, same backend and
// engine.
func (r *Runner) child() *Runner {
	return &Runner{
		benches:       r.benches,
		order:         r.order,
		results:       map[SimKey]*SimResult{},
		tenantResults: map[tenantCell]*TenantResult{},
		store:         r.store,
		DRAMSpec:      r.DRAMSpec,
		Engine:        r.Engine,
	}
}

// tenantCell is one multi-tenant simulation: the memo key of SimTenants
// and a prewarm request. mix is the tenants' benchmarks joined with
// "+", which cannot appear in a benchmark name.
type tenantCell struct {
	mix   string
	l2lat int64
	spec  string
}

// simKey is the cell as Progress reports it.
func (c tenantCell) simKey() SimKey {
	return SimKey{Bench: c.mix, Variant: mom3DVariant, Mem: mom3DVCKind, L2Lat: c.l2lat, DRAM: c.spec}
}

// prewarm simulates the given cells across r.Workers goroutines and
// installs the results into the memo, so a sweep's serial loop replays
// from cache. With Workers <= 1 it is a no-op: the sweep computes each
// cell lazily, exactly as before the pool existed.
func (r *Runner) prewarm(cells []SimKey) {
	prewarm(r, cells, r.results, func(k SimKey) SimKey { return k }, (*Runner).simKey)
}

// simKey is SimDRAM by memo key.
func (r *Runner) simKey(k SimKey) *SimResult {
	return r.SimDRAM(k.Bench, k.Variant, k.Mem, k.L2Lat, k.DRAM)
}

// prewarmTenants is prewarm for the multi-tenant cells of the
// interference and placement sweeps.
func (r *Runner) prewarmTenants(cells []tenantCell) {
	prewarm(r, cells, r.tenantResults, tenantCell.simKey,
		func(c *Runner, k tenantCell) *TenantResult {
			return c.SimTenants(strings.Split(k.mix, "+"), k.l2lat, k.spec)
		})
}

// prewarm is the one worker pool: sim runs every cell the memo lacks on
// per-worker clones of r. A panic inside a cell is recovered in its
// worker and raised again here, on the calling goroutine, with the
// cell's key — where a sweep's caller can recover it and name the cell.
func prewarm[K comparable, V any](r *Runner, cells []K, memo map[K]*V, label func(K) SimKey, sim func(*Runner, K) *V) {
	if r.Workers <= 1 {
		return
	}
	var todo []K
	seen := map[K]bool{}
	for _, k := range cells {
		if seen[k] || memo[k] != nil {
			continue
		}
		seen[k] = true
		todo = append(todo, k)
		if r.Progress != nil {
			r.Progress(label(k))
		}
	}
	if len(todo) < 2 {
		return
	}
	out := make([]*V, len(todo))
	panics := make([]any, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(r.Workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.child()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					out[i] = sim(c, todo[i])
				}()
			}
		}()
	}
	wg.Wait()
	for i, k := range todo {
		if panics[i] != nil {
			panic(fmt.Sprintf("experiments: cell %+v: %v", k, panics[i]))
		}
		memo[k] = out[i]
	}
}
