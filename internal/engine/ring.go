package engine

import "math/bits"

// Ring is a timing-wheel event queue specialized for the hot path of
// the issue scan: dense wake-ups a bounded distance in the future.
// A circular bucket array covers the next span cycles with O(1)
// scheduling and popping; a per-word occupancy bitmap makes "first
// non-empty cycle" a handful of word scans instead of a heap walk.
// The rare event beyond the horizon goes to a small overflow min-heap.
//
// Same-cycle events pop in LIFO order. The ring's consumers are
// order-insensitive within a cycle (waking an entry is idempotent and
// the issue scan re-sorts by age), which is what buys the cheapest
// bucket representation: a chain pushed and popped at its head.
//
// Every simulator owns a ring, so the ring allocates nothing per
// bucket: the chains of all buckets and the free list thread through
// one slab of nodes, which grows to the high-water mark of events in
// flight and is then reused — steady-state Schedule and PopUpTo do not
// allocate.
type Ring struct {
	heads  []int32    // per-bucket chain head, as slab index+1; 0 = empty
	nodes  []ringNode // the slab
	free   int32      // free-list head, as slab index+1; 0 = none
	bitmap []uint64
	mask   int64
	base   int64 // slots hold cycles in [base, base+span)
	nextLB int64 // no slot event lies in [base, nextLB): scans start here
	count  int   // events resident in slots
	far    []ringFar
}

// ringNode is one event resident in a bucket, or one free-list link.
type ringNode struct {
	data uint64
	next int32 // slab index+1 of the next node on the same chain; 0 = end
}

type ringFar struct {
	cycle int64
	data  uint64
}

// NewRing returns a ring whose bucket array spans at least the given
// number of cycles (rounded up to a power of two, minimum 64).
func NewRing(span int) *Ring {
	n := 64
	for n < span {
		n <<= 1
	}
	return &Ring{
		heads:  make([]int32, n),
		bitmap: make([]uint64, n/64),
		mask:   int64(n) - 1,
	}
}

// Schedule registers data to pop once now reaches cycle. A cycle
// already in the past is clamped to the present.
func (r *Ring) Schedule(cycle int64, data uint64) {
	if cycle < r.base {
		cycle = r.base
	}
	if cycle > r.base+r.mask {
		r.farPush(ringFar{cycle, data})
		return
	}
	idx := cycle & r.mask
	n := r.free
	if n != 0 {
		r.free = r.nodes[n-1].next
	} else {
		r.nodes = append(r.nodes, ringNode{})
		n = int32(len(r.nodes))
	}
	r.nodes[n-1] = ringNode{data: data, next: r.heads[idx]}
	r.heads[idx] = n
	r.bitmap[idx>>6] |= 1 << (uint(idx) & 63)
	r.count++
	if cycle < r.nextLB {
		r.nextLB = cycle
	}
}

// NextCycle reports the earliest cycle holding an event.
func (r *Ring) NextCycle() (int64, bool) {
	best, ok := r.nextSlotCycle()
	if len(r.far) > 0 && (!ok || r.far[0].cycle < best) {
		return r.far[0].cycle, true
	}
	return best, ok
}

// PopUpTo removes and returns one event scheduled at or before now.
// Draining all due events takes repeated calls.
func (r *Ring) PopUpTo(now int64) (uint64, bool) {
	if len(r.far) > 0 && r.far[0].cycle <= now {
		return r.farPop(), true
	}
	if r.count > 0 {
		if c, ok := r.nextSlotCycle(); ok && c <= now {
			idx := c & r.mask
			n := r.heads[idx]
			nd := &r.nodes[n-1]
			d := nd.data
			r.heads[idx] = nd.next
			if nd.next == 0 {
				r.bitmap[idx>>6] &^= 1 << (uint(idx) & 63)
			}
			nd.next, r.free = r.free, n
			r.count--
			r.base = c // later events keep their slots: all lie in [c, c+span)
			return d, true
		}
	}
	// Nothing due: slide the window forward so the full span is
	// available ahead of the present. Safe because every resident
	// event lies strictly after now.
	if r.base <= now {
		r.base = now + 1
	}
	return 0, false
}

// nextSlotCycle finds the earliest non-empty bucket at or after base
// by scanning the occupancy bitmap circularly from base's bit.
func (r *Ring) nextSlotCycle() (int64, bool) {
	if r.count == 0 {
		return 0, false
	}
	words := len(r.bitmap)
	from := r.base
	if r.nextLB > from {
		// The window below nextLB is known empty; a full-circle scan
		// from there is still safe because those slots hold nothing.
		from = r.nextLB
	}
	start := from & r.mask
	w0 := int(start >> 6)
	// First word: ignore bits below the start position.
	if b := r.bitmap[w0] &^ (1<<(uint(start)&63) - 1); b != 0 {
		c := r.slotToCycle(int64(w0<<6 + bits.TrailingZeros64(b)))
		r.nextLB = c
		return c, true
	}
	for i := 1; i <= words; i++ {
		w := w0 + i
		if w >= words {
			w -= words
		}
		b := r.bitmap[w]
		if w == w0 { // wrapped: only bits below the start position remain
			b &= 1<<(uint(start)&63) - 1
		}
		if b != 0 {
			c := r.slotToCycle(int64(w<<6 + bits.TrailingZeros64(b)))
			r.nextLB = c
			return c, true
		}
	}
	return 0, false
}

// slotToCycle maps a bucket index back to the unique cycle in
// [base, base+span) that hashes to it.
func (r *Ring) slotToCycle(idx int64) int64 {
	return r.base + ((idx - r.base) & r.mask)
}

func (r *Ring) farPush(e ringFar) {
	r.far = append(r.far, e)
	i := len(r.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.far[p].cycle <= r.far[i].cycle {
			break
		}
		r.far[p], r.far[i] = r.far[i], r.far[p]
		i = p
	}
}

func (r *Ring) farPop() uint64 {
	d := r.far[0].data
	n := len(r.far) - 1
	r.far[0] = r.far[n]
	r.far = r.far[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && r.far[c+1].cycle < r.far[c].cycle {
			c++
		}
		if r.far[i].cycle <= r.far[c].cycle {
			break
		}
		r.far[i], r.far[c] = r.far[c], r.far[i]
		i = c
	}
	return d
}
