package experiments

import (
	"fmt"
	"runtime"
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
		benches:  r.benches,
		order:    r.order,
		results:  map[SimKey]*SimResult{},
		store:    r.store,
		dramSpec: r.dramSpec,
		Engine:   r.Engine,
	}
}

// prewarm simulates the given cells across r.Workers goroutines and
// installs the results into the memo, so a sweep's serial loop replays
// from cache. With Workers <= 1 it is a no-op: the sweep computes each
// cell lazily, exactly as before the pool existed.
func (r *Runner) prewarm(cells []SimKey) { prewarm(r, cells, r.results, (*Runner).simulate) }

// recall is the pool's serial half: memo's entry for k, simulated by sim
// on r — and reported to Progress — the first time k is asked for.
func recall[V any](r *Runner, memo map[SimKey]*V, k SimKey, sim func(*Runner, SimKey) *V) *V {
	if v := memo[k]; v != nil {
		return v
	}
	if r.Progress != nil {
		r.Progress(k)
	}
	memo[k] = sim(r, k)
	return memo[k]
}

// prewarm is the one worker pool: sim runs every cell the memo lacks on
// per-worker clones of r. A panic inside a cell is recovered in its
// worker and raised again here, on the calling goroutine, with the
// cell's key — where a sweep's caller can recover it and name the cell.
func prewarm[V any](r *Runner, cells []SimKey, memo map[SimKey]*V, sim func(*Runner, SimKey) *V) {
	if r.Workers <= 1 {
		return
	}
	var todo []SimKey
	seen := map[SimKey]bool{}
	for _, k := range cells {
		if seen[k] || memo[k] != nil {
			continue
		}
		seen[k] = true
		todo = append(todo, k)
		if r.Progress != nil {
			r.Progress(k)
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
