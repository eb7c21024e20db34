// Package cache implements the set-associative cache models of the
// paper's memory hierarchy (§5.3): a 64KB 2-way write-through L1 with
// 32-byte lines and a 2MB 4-way write-back L2 with 128-byte lines, plus
// the exclusive-bit coherence filter that lets vector accesses bypass the
// L1 safely.
//
// The models track tags, LRU state, dirty bits and statistics; timing is
// composed by the core and vector memory subsystems from the configured
// latencies.
package cache

import (
	"fmt"
	"sync"
)

// Config describes one cache.
type Config struct {
	Name      string
	Size      int   // total bytes
	LineSize  int   // bytes per line (power of two)
	Ways      int   // associativity
	WriteBack bool  // write-back with write-allocate; else write-through
	Latency   int64 // access latency in cycles
}

// L2LineBytes is the L2 line size and therefore the transfer
// granularity of every main-memory request: the DRAM backends and the
// MSHR file use this same constant, so the two cannot drift apart.
const L2LineBytes = 128

// L1Config returns the paper's L1 data cache configuration.
func L1Config() Config {
	return Config{Name: "L1", Size: 64 << 10, LineSize: 32, Ways: 2, WriteBack: false, Latency: 1}
}

// L2Config returns the paper's L2 cache configuration with the given
// latency (20 cycles in the base system; 40 and 60 in the §6.2 study).
func L2Config(latency int64) Config {
	return Config{Name: "L2", Size: 2 << 20, LineSize: L2LineBytes, Ways: 4, WriteBack: true, Latency: latency}
}

// Stats counts cache events. The demand counters (Accesses, Hits,
// Misses) never include prefetch fills: FillPrefetch keeps its own
// counters so enabling a prefetcher cannot shift the hit-rate figures
// the paper's tables report.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Writebacks  uint64
	Invalidates uint64

	// PrefetchFills counts lines installed by FillPrefetch.
	// PrefetchedHits counts demand accesses that found a line a
	// prefetch installed (the access clears the line's prefetched
	// mark, so each fill is counted at most once). PrefetchUseless
	// counts prefetched lines evicted or invalidated with the mark
	// still set — lines fetched and never wanted.
	PrefetchFills   uint64
	PrefetchedHits  uint64
	PrefetchUseless uint64
}

// line is one cache line in 16 bytes. tag is the line number plus one,
// so the zero line is invalid. meta is the LRU tick of the line's last
// touch shifted above three flag bits. Ticks are unique within a cache
// and an invalid line's meta is 0, so comparing metas orders lines
// exactly as comparing ticks would.
type line struct {
	tag  uint64
	meta uint64
}

const (
	// metaPF marks a line installed by a prefetch and not yet touched by
	// a demand access; the first demand access reports and clears it.
	metaPF uint64 = 1 << iota
	metaDirty
	// metaInL1 is the exclusive-bit of the coherence protocol: set when
	// the line may also be cached in the L1, so vector writes know to
	// invalidate it there.
	metaInL1
	metaTickShift = iota
)

// Cache is one set-associative cache array.
type Cache struct {
	cfg       Config
	lines     []line // set i is lines[i*Ways : (i+1)*Ways]
	setMask   uint64
	lineShift uint
	tick      uint64
	Stats     Stats
}

// New builds a cache from its configuration, on a released line array
// of its geometry when there is one.
func New(cfg Config) *Cache {
	nSets := cfg.Size / cfg.LineSize / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nSets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	c, n := &Cache{cfg: cfg, setMask: uint64(nSets - 1), lineShift: shift}, nSets*cfg.Ways
	spareMu.Lock()
	defer spareMu.Unlock()
	if free := spare[n]; len(free) > 0 {
		c.lines, spare[n] = free[len(free)-1], free[:len(free)-1]
		clear(c.lines)
	} else {
		c.lines = make([]line, n)
	}
	return c
}

// spare holds up to 8 released line arrays per length for New. A locked
// list, not a sync.Pool, so that allocation counts repeat exactly.
var spareMu sync.Mutex
var spare = map[int][][]line{}

// Release hands the line array back for New. Stats stay readable; any
// other use panics. Releasing twice, or a nil cache, does nothing.
func (c *Cache) Release() {
	if c == nil || c.lines == nil {
		return
	}
	spareMu.Lock()
	defer spareMu.Unlock()
	if free := spare[len(c.lines)]; len(free) < 8 {
		spare[len(c.lines)] = append(free, c.lines)
	}
	c.lines = nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

func (c *Cache) find(addr uint64) (set []line, way int) {
	ln := addr >> c.lineShift
	i := int(ln&c.setMask) * c.cfg.Ways
	set = c.lines[i : i+c.cfg.Ways]
	for w := range set {
		if set[w].tag == ln+1 {
			return set, w
		}
	}
	return set, -1
}

// Result reports what one cache access did.
type Result struct {
	Hit        bool
	Writeback  bool   // a dirty victim was evicted
	VictimAddr uint64 // line address of the dirty victim when Writeback

	// Prefetched reports that a demand access hit a line a prefetch
	// installed that no demand had touched yet (the mark is cleared, so
	// at most one access per fill sees it). The caller may still be
	// waiting on the line's fill in the MSHR file — the vmem layer
	// resolves that into the PrefetchHit / PrefetchLate split.
	Prefetched bool
}

// Access looks up the line containing addr, allocating it on a miss
// (write misses allocate only in write-back caches; a write-through cache
// passes write misses downstream without allocation). fromL1 marks L2
// fills triggered by the scalar side, setting the exclusive bit.
func (c *Cache) Access(addr uint64, write, fromL1 bool) Result {
	c.Stats.Accesses++
	c.tick++
	var flags uint64
	if write && c.cfg.WriteBack {
		flags |= metaDirty
	}
	if fromL1 {
		flags |= metaInL1
	}
	set, w := c.find(addr)
	if w >= 0 {
		c.Stats.Hits++
		l := &set[w]
		res := Result{Hit: true, Prefetched: l.meta&metaPF != 0}
		if res.Prefetched {
			c.Stats.PrefetchedHits++
		}
		l.meta = c.tick<<metaTickShift | l.meta&(metaDirty|metaInL1) | flags
		return res
	}
	c.Stats.Misses++
	if write && !c.cfg.WriteBack {
		return Result{} // write-through, no write-allocate
	}
	return c.allocate(set, addr, flags)
}

// allocate installs the line containing addr into set with the given
// flag bits, evicting victimWay's choice, and reports any dirty victim.
func (c *Cache) allocate(set []line, addr, flags uint64) Result {
	v := &set[c.victimWay(set)]
	res := Result{}
	if v.tag != 0 {
		c.Stats.Evictions++
		if v.meta&metaPF != 0 {
			c.Stats.PrefetchUseless++
		}
		if v.meta&metaDirty != 0 {
			c.Stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = (v.tag - 1) << c.lineShift
		}
	}
	*v = line{tag: addr>>c.lineShift + 1, meta: c.tick<<metaTickShift | flags}
	return res
}

// victimWay picks the way a fill of this set would evict: the first
// invalid way among ways 1 and up, else the way with the smallest meta.
// That is the LRU way, unless way 0 is invalid: its zero meta makes it
// the oldest, so way 0 is taken last when a set fills up from empty.
// Goldens depend on this order.
func (c *Cache) victimWay(set []line) int {
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].tag == 0 {
			return i
		}
		if set[i].meta < set[victim].meta {
			victim = i
		}
	}
	return victim
}

// FillPrefetch installs the line containing addr as a clean prefetched
// line through the normal allocate path — the same LRU victim selection
// and dirty-victim write-back reporting a demand fill gets — without
// counting a demand access (the Accesses/Hits/Misses counters and the
// exclusive bit are untouched). Filling a line already present is a
// no-op that reports a hit. The first demand access to the filled line
// reports Prefetched and clears the mark; a line evicted with the mark
// still set counts as PrefetchUseless.
func (c *Cache) FillPrefetch(addr uint64) Result {
	c.tick++
	set, w := c.find(addr)
	if w >= 0 {
		return Result{Hit: true}
	}
	c.Stats.PrefetchFills++
	return c.allocate(set, addr, metaPF)
}

// PeekVictim reports, without side effects, what a fill of addr's line
// would do: present means the line is already cached (no eviction);
// otherwise victim/dirty describe the line the fill would evict (dirty
// false with victim 0 when the set still has an invalid way). The
// prefetcher uses it to drop a prefetch whose dirty victim could not be
// posted, before committing the fill.
func (c *Cache) PeekVictim(addr uint64) (victim uint64, dirty, present bool) {
	set, w := c.find(addr)
	if w >= 0 {
		return 0, false, true
	}
	v := set[c.victimWay(set)]
	if v.tag == 0 {
		return 0, false, false
	}
	return (v.tag - 1) << c.lineShift, v.meta&metaDirty != 0, false
}

// Contains reports whether the line holding addr is present (no LRU or
// statistics side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, w := c.find(addr)
	return w >= 0
}

// Invalidate drops the line containing addr, returning whether it was
// present (its dirty data is discarded; callers on write-through caches
// lose nothing).
func (c *Cache) Invalidate(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.Stats.Invalidates++
	if set[w].meta&metaPF != 0 {
		c.Stats.PrefetchUseless++
	}
	set[w] = line{}
	return true
}

// ExclusiveInL1 reports and clears the exclusive bit of the line holding
// addr: true means a vector write must invalidate the L1 copy.
func (c *Cache) ExclusiveInL1(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 || set[w].meta&metaInL1 == 0 {
		return false
	}
	set[w].meta &^= metaInL1
	return true
}
