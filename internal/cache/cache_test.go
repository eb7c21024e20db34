package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 32B lines = 256 bytes.
	return New(Config{Name: "t", Size: 256, LineSize: 32, Ways: 2, WriteBack: true, Latency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if c.Access(0x100, false, false).Hit {
		t.Fatal("first access must miss")
	}
	if !c.Access(0x100, false, false).Hit {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x11f, false, false).Hit {
		t.Fatal("same line must hit")
	}
	if c.Access(0x120, false, false).Hit {
		t.Fatal("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Three lines mapping to the same set (set index bits = addr>>5 & 3).
	a, b, d := uint64(0x000), uint64(0x080), uint64(0x100) // set 0 each (32B lines, 4 sets)
	c.Access(a, false, false)
	c.Access(b, false, false)
	c.Access(a, false, false) // a more recent than b
	c.Access(d, false, false) // evicts b
	if !c.Contains(a) || !c.Contains(d) {
		t.Fatal("a and d must be resident")
	}
	if c.Contains(b) {
		t.Fatal("b must have been evicted (LRU)")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := tiny()
	c.Access(0x000, true, false) // dirty
	c.Access(0x080, false, false)
	r := c.Access(0x100, false, false) // evicts dirty 0x000
	if !r.Writeback {
		t.Error("evicting a dirty line must write back")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := New(Config{Size: 256, LineSize: 32, Ways: 2, WriteBack: false, Latency: 1})
	c.Access(0x40, true, false)
	if c.Contains(0x40) {
		t.Error("write-through cache must not allocate on write miss")
	}
	c.Access(0x40, false, false)
	c.Access(0x40, true, false) // write hit: line stays, not dirty
	r := struct{}{}
	_ = r
	if !c.Contains(0x40) {
		t.Error("line must remain after write hit")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Access(0x200, false, false)
	if !c.Invalidate(0x210) {
		t.Fatal("invalidate of resident line must report true")
	}
	if c.Contains(0x200) {
		t.Fatal("line must be gone")
	}
	if c.Invalidate(0x200) {
		t.Fatal("invalidate of absent line must report false")
	}
	if c.Stats.Invalidates != 1 {
		t.Errorf("invalidates = %d", c.Stats.Invalidates)
	}
}

func TestExclusiveBit(t *testing.T) {
	c := tiny()
	c.Access(0x40, false, true) // filled by the L1 side
	if !c.ExclusiveInL1(0x40) {
		t.Fatal("exclusive bit must be set by fromL1 fills")
	}
	if c.ExclusiveInL1(0x40) {
		t.Fatal("exclusive bit must clear after the check")
	}
	c.Access(0x40, false, true) // re-set
	if !c.ExclusiveInL1(0x40) {
		t.Fatal("exclusive bit must be settable again")
	}
	c.Access(0x80, false, false)
	if c.ExclusiveInL1(0x80) {
		t.Fatal("vector-filled lines must not be marked exclusive")
	}
}

func TestPaperConfigs(t *testing.T) {
	l1 := New(L1Config())
	if len(l1.lines) != 64<<10/32 {
		t.Error("L1 line count")
	}
	l2 := New(L2Config(20))
	if len(l2.lines) != 2<<20/128 {
		t.Error("L2 line count")
	}
	if l2.Config().Latency != 20 || l1.Config().Latency != 1 {
		t.Error("latencies")
	}
	if l2.LineAddr(0x12345) != 0x12345&^uint64(127) {
		t.Error("LineAddr")
	}
}

// Property: the cache agrees with a reference model that tracks resident
// line addresses per set with LRU order.
func TestAgainstReferenceModel(t *testing.T) {
	c := tiny()
	type key struct{ set int }
	ref := map[int][]uint64{} // set -> line tags, most recent last
	_ = key{}
	access := func(addr uint64) bool {
		lineTag := addr >> 5
		set := int(lineTag & 3)
		lst := ref[set]
		for i, tg := range lst {
			if tg == lineTag {
				lst = append(append(lst[:i], lst[i+1:]...), lineTag)
				ref[set] = lst
				return true
			}
		}
		lst = append(lst, lineTag)
		if len(lst) > 2 {
			lst = lst[1:]
		}
		ref[set] = lst
		return false
	}
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a)
			want := access(addr)
			got := c.Access(addr, false, false).Hit
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refCache is the cache as it was stored before its lines were packed
// into 16 bytes: a slice of sets, each a slice of 24-byte lines with one
// bool per flag and the LRU tick in a field of its own. It is kept as
// the reference TestPackedLinesMatchReference drives Cache against.
type refCache struct {
	cfg       Config
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	tick      uint64
	Stats     Stats
}

type refLine struct {
	tag                    uint64
	valid, dirty, inL1, pf bool
	lru                    uint64
}

func newRef(cfg Config) *refCache {
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Ways
	sets := make([][]refLine, nSets)
	backing := make([]refLine, nLines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	return &refCache{cfg: cfg, sets: sets, setMask: uint64(nSets - 1), lineShift: shift}
}

func (c *refCache) find(addr uint64) (set []refLine, way int) {
	tag := addr >> c.lineShift
	set = c.sets[tag&c.setMask]
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return set, w
		}
	}
	return set, -1
}

func (c *refCache) Access(addr uint64, write, fromL1 bool) Result {
	c.Stats.Accesses++
	c.tick++
	set, w := c.find(addr)
	if w >= 0 {
		c.Stats.Hits++
		set[w].lru = c.tick
		if write {
			set[w].dirty = c.cfg.WriteBack
		}
		if fromL1 {
			set[w].inL1 = true
		}
		res := Result{Hit: true}
		if set[w].pf {
			set[w].pf = false
			c.Stats.PrefetchedHits++
			res.Prefetched = true
		}
		return res
	}
	c.Stats.Misses++
	if write && !c.cfg.WriteBack {
		return Result{}
	}
	return c.allocate(set, addr, write && c.cfg.WriteBack, fromL1, false)
}

func (c *refCache) allocate(set []refLine, addr uint64, dirty, fromL1, pf bool) Result {
	victim := c.victimWay(set)
	res := Result{}
	if set[victim].valid {
		c.Stats.Evictions++
		if set[victim].pf {
			c.Stats.PrefetchUseless++
		}
		if set[victim].dirty {
			c.Stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = set[victim].tag << c.lineShift
		}
	}
	set[victim] = refLine{tag: addr >> c.lineShift, valid: true, dirty: dirty,
		inL1: fromL1, pf: pf, lru: c.tick}
	return res
}

func (c *refCache) victimWay(set []refLine) int {
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			return i
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return victim
}

func (c *refCache) FillPrefetch(addr uint64) Result {
	c.tick++
	set, w := c.find(addr)
	if w >= 0 {
		return Result{Hit: true}
	}
	c.Stats.PrefetchFills++
	return c.allocate(set, addr, false, false, true)
}

func (c *refCache) PeekVictim(addr uint64) (victim uint64, dirty, present bool) {
	set, w := c.find(addr)
	if w >= 0 {
		return 0, false, true
	}
	v := c.victimWay(set)
	if !set[v].valid {
		return 0, false, false
	}
	return set[v].tag << c.lineShift, set[v].dirty, false
}

func (c *refCache) Contains(addr uint64) bool {
	_, w := c.find(addr)
	return w >= 0
}

func (c *refCache) Invalidate(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.Stats.Invalidates++
	if set[w].pf {
		c.Stats.PrefetchUseless++
	}
	set[w] = refLine{}
	return true
}

func (c *refCache) ExclusiveInL1(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 || !set[w].inL1 {
		return false
	}
	set[w].inL1 = false
	return true
}

// refConfigs are the geometries the reference tests cover: the paper's
// two caches and a four-line, direct-mapped L2.
var refConfigs = []Config{L1Config(), L2Config(20),
	{Name: "L2x4", Size: 4 * L2LineBytes, LineSize: L2LineBytes, Ways: 1, WriteBack: true, Latency: 20}}

// drive runs a seeded random stream of every operation through c and
// ref and compares each return value and the whole Stats after every
// step. Addresses crowd eight sets with three times as many lines as
// they hold, so evictions, dirty victims, useless prefetches and refills
// of invalidated ways are all common.
func drive(t *testing.T, c *Cache, ref *refCache, seed int64) {
	t.Helper()
	cfg := c.cfg
	r := rand.New(rand.NewSource(seed))
	nSets := cfg.Size / cfg.LineSize / cfg.Ways
	for step := 0; step < 20000; step++ {
		addr := uint64(((r.Intn(3*cfg.Ways)*nSets+r.Intn(min(nSets, 8)))*cfg.LineSize + r.Intn(cfg.LineSize)))
		var got, want string
		switch op := r.Intn(10); {
		case op < 5:
			write, fromL1 := r.Intn(2) == 0, r.Intn(2) == 0
			got = fmt.Sprint(c.Access(addr, write, fromL1))
			want = fmt.Sprint(ref.Access(addr, write, fromL1))
		case op == 5:
			got, want = fmt.Sprint(c.FillPrefetch(addr)), fmt.Sprint(ref.FillPrefetch(addr))
		case op == 6:
			got, want = fmt.Sprint(c.Invalidate(addr)), fmt.Sprint(ref.Invalidate(addr))
		case op == 7:
			got, want = fmt.Sprint(c.ExclusiveInL1(addr)), fmt.Sprint(ref.ExclusiveInL1(addr))
		case op == 8:
			got, want = fmt.Sprint(c.PeekVictim(addr)), fmt.Sprint(ref.PeekVictim(addr))
		default:
			got, want = fmt.Sprint(c.Contains(addr)), fmt.Sprint(ref.Contains(addr))
		}
		if got != want || c.Stats != ref.Stats {
			t.Fatalf("%s seed %d step %d addr %#x: got %s with %+v, reference %s with %+v",
				cfg.Name, seed, step, addr, got, c.Stats, want, ref.Stats)
		}
	}
}

// TestPackedLinesMatchReference drives Cache beside refCache, the layout
// it replaced, through four seeded streams per geometry.
func TestPackedLinesMatchReference(t *testing.T) {
	for _, cfg := range refConfigs {
		for seed := int64(1); seed <= 4; seed++ {
			drive(t, New(cfg), newRef(cfg), seed)
		}
	}
}

// TestRecycledCacheMatchesReference: a cache built on a released array
// is a fresh cache. The array comes back cleared, a released cache
// panics rather than read it, and a second Release of the same cache
// does not put it on the free list twice, where two caches would share
// it.
func TestRecycledCacheMatchesReference(t *testing.T) {
	for _, cfg := range refConfigs {
		c := New(cfg)
		drive(t, c, newRef(cfg), 1)
		used := &c.lines[0]
		c.Release()
		c.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a released cache answered a lookup", cfg.Name)
				}
			}()
			c.Contains(0)
		}()
		c = New(cfg)
		if &c.lines[0] != used {
			t.Fatalf("%s: New did not reuse the released array", cfg.Name)
		}
		other := New(cfg)
		if &other.lines[0] == used {
			t.Fatalf("%s: two caches share one array after a double Release", cfg.Name)
		}
		drive(t, c, newRef(cfg), 2)
		c.Release()
		other.Release()
	}
}

// TestNewReleaseSteadyStateAllocs holds New to the free list: once an L2
// array has been released, a New/Release round allocates only the Cache.
func TestNewReleaseSteadyStateAllocs(t *testing.T) {
	round := func() { New(L2Config(20)).Release() }
	round() // warm: the free list holds one array
	if n := testing.AllocsPerRun(100, round); n > 1 {
		t.Fatalf("a warmed New/Release round allocates %.1f times, want at most 1", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 100; b >= 1<<10 {
		t.Fatalf("a warmed New/Release round allocates %d bytes, want under 1 KiB", b)
	}
}
