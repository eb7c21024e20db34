package vmem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
)

// hbmBackend is the 8-channel banked part, whose completions spread
// with bank and bus contention the way a flat test backend's cannot.
func hbmBackend(tb testing.TB) dram.Backend {
	tb.Helper()
	b, _, err := dram.ParseSpecFull("sdram/line/frfcfs/hbm", 100)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// scanViews recomputes from the live set what the file keeps
// incrementally, the way the MLP sample, prefetchLive and free's loop
// did when each of them scanned: unresolved entries, unresolved
// prefetches among them, and the earliest completion free could act on.
func scanViews(f *MSHRFile) (unresolved, pfLive int, minDone int64) {
	minDone = math.MaxInt64
	for _, e := range f.entries {
		switch {
		case !e.resolved:
			unresolved++
			if e.prefetch {
				pfLive++
			}
		case e.done < minDone:
			minDone = e.done
		}
	}
	return
}

// TestMSHRViewsMatchScan drives files of several sizes with a seeded
// random instruction mix — streaming and repeated lines (prefetch
// training, merges), stores (dirty victims: write-backs), bursts wider
// than the file (full-stalls), touches of prefetched lines — between
// random ReadyBy/Done polls and drains, and after every call holds the
// three incremental views to a from-scratch scan: the unresolved count,
// the prefetch quota's count, and the earliest resolved completion — that
// is, for every t, whether free(t) has anything to drop.
func TestMSHRViewsMatchScan(t *testing.T) {
	for _, mshrs := range []int{2, 8, 64} {
		rng := rand.New(rand.NewSource(int64(20020918 + mshrs)))
		f, l2 := pfFile(hbmBackend(t), mshrs, 8, 4)
		now := int64(0)
		check := func(step int, what string) {
			t.Helper()
			unresolved, pfLive, minDone := scanViews(f)
			if f.unresolved != unresolved || f.pfLive != pfLive || f.minDone != minDone {
				t.Fatalf("mshr%d step %d after %s: views (unresolved %d, prefetch-live %d, min done %d) != scan (%d, %d, %d)",
					mshrs, step, what, f.unresolved, f.pfLive, f.minDone, unresolved, pfLive, minDone)
			}
			drops := false
			for _, e := range f.entries {
				drops = drops || (e.resolved && e.done <= now)
			}
			if drops != (now >= f.minDone) {
				t.Fatalf("mshr%d step %d after %s: free(%d) has work = %v, but its early-out says %v", mshrs, step, what, now, drops, now >= f.minDone)
			}
		}
		// Sixteen streams over 16 MB: eight times the L2, so lines are
		// evicted (dirty ones written back) and re-missed.
		var streams [16]uint64
		for i := range streams {
			streams[i] = uint64(i) << 20
		}
		var handles []*Pending
		var recent []uint64
		for step := 0; step < 6000; step++ {
			now += int64(rng.Intn(40))
			switch k := rng.Intn(12); {
			case k < 7:
				var batch []dram.Request
				var touch []PFTouch
				s := rng.Intn(len(streams))
				store := rng.Intn(4) == 0
				for i, n := 0, 1+rng.Intn(16); i < n; i++ {
					at := now + int64(i)
					if len(recent) > 0 && rng.Intn(8) == 0 {
						// A line filed moments ago, past the L2: a secondary miss.
						batch = append(batch, dram.Request{Addr: recent[rng.Intn(len(recent))], At: at})
						continue
					}
					addr := streams[s]
					streams[s] = addr + lineB
					switch res := l2.Access(addr, store, false); {
					case res.Prefetched:
						touch = append(touch, PFTouch{Line: addr, At: at})
					case !res.Hit:
						batch = append(batch, dram.Request{Addr: addr, At: at})
						recent = append(recent, addr)
						if res.Writeback {
							batch = append(batch, dram.Request{Addr: res.VictimAddr, Write: true, At: at})
						}
					}
				}
				if len(recent) > 32 {
					recent = recent[len(recent)-32:]
				}
				ten := uint8(rng.Intn(3))
				for i := range batch {
					batch[i].Tenant = ten
				}
				for i := range touch {
					touch[i].Tenant = ten
				}
				handles = append(handles, f.Register(batch, touch, now+20))
				check(step, "Register")
			case k < 10 && len(handles) > 0:
				handles[rng.Intn(len(handles))].ReadyBy(now)
				check(step, "ReadyBy")
			case k == 10 && len(handles) > 0:
				i := rng.Intn(len(handles))
				handles[i].Done()
				handles = append(handles[:i], handles[i+1:]...)
				check(step, "Done")
			default:
				f.Drain()
				check(step, "Drain")
			}
		}
		st, pf := f.Stats(), f.PrefetchStats()
		if st.Merges == 0 || st.FullStalls == 0 || st.Writebacks == 0 || pf.Issued == 0 || pf.Hits+pf.Late == 0 {
			t.Errorf("mshr%d: the mix missed a path it is there for: %d merges, %d full-stalls, %d write-backs, %d prefetches issued, %d touched",
				mshrs, st.Merges, st.FullStalls, st.Writebacks, pf.Issued, pf.Hits+pf.Late)
		}
	}
}

// missRound is the miss path's steady state: 64 instructions of four
// fresh lines each — 256 misses — filed eight cycles apart into a
// 16-entry file, so allocations full-stall and flush, each handle polled
// 128 cycles after it was filed, and a drain at the end.
type missRound struct {
	f       *MSHRFile
	now     int64
	line    uint64
	reqs    [4]dram.Request
	handles [16]*Pending
}

const roundMisses = 64 * 4

func (r *missRound) run() {
	for i := 0; i < 64; i++ {
		for j := range r.reqs {
			r.reqs[j] = dram.Request{Addr: r.line, At: r.now + int64(j)}
			r.line += cache.L2LineBytes
		}
		h := &r.handles[i%len(r.handles)]
		(*h).ReadyBy(r.now) // nil on the first lap: ready
		*h = r.f.Register(r.reqs[:], nil, r.now+20)
		r.now += 8
	}
	r.f.Drain()
}

// TestRegisterFlushSteadyStateAllocs pins what recycling is for: a
// warmed round of 64 instructions allocates at most once — a quarter of
// a handle slab — because entries come back from the spare list and
// handles' windows from an arena each flush rewinds. Before, every 256
// misses took an entry slab and a pointer and an ID window slab too.
func TestRegisterFlushSteadyStateAllocs(t *testing.T) {
	r := &missRound{f: NewMSHRFile(mshrTiming(hbmBackend(t)), 16)}
	for i := 0; i < 8; i++ {
		r.run() // warm: maps, the pending batch, the arena and the backend's scratch reach size
	}
	if n := testing.AllocsPerRun(50, r.run); n > 1 {
		t.Fatalf("a warmed round of %d misses allocates %.2f times, want at most once", roundMisses, n)
	}
	if st := r.f.Stats(); st.FullStalls == 0 || st.Flushes == 0 {
		t.Fatalf("the round is not the miss path: %d full-stalls, %d flushes", st.FullStalls, st.Flushes)
	}
}

// BenchmarkRegisterFlush tracks the miss path's host cost: one op is a
// round of 256 misses — Register, the flush's Submit on the
// 8-channel part, resolve, settle, free — and its only allocations are
// handle-slab refills, a quarter of one per op.
func BenchmarkRegisterFlush(b *testing.B) {
	r := &missRound{f: NewMSHRFile(mshrTiming(hbmBackend(b)), 16)}
	r.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run()
	}
}
