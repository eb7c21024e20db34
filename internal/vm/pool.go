package vm

import "math/bits"

// pool is the physical page pool: a bitmap of claimed pages. Demand
// faults claim pages one at a time and nothing returns one — a machine
// runs once and is dropped — so low, the first word that may still hold
// a free page, only moves forward. Every answer is the lowest page that
// qualifies, which is what the placement policies ask for: first-fit
// takes the lowest free page, coloring the lowest free page on a
// channel, co-location one specific page or the lowest above it.
type pool struct {
	used    []uint64 // bit i%64 of word i/64 is set once page i is claimed
	n, free uint64
	low     int
}

func newPool(n uint64) *pool {
	return &pool{used: make([]uint64, (n+63)/64), n: n, free: n}
}

// claim takes page i if it lies in the pool and is free, reporting
// whether it did.
func (p *pool) claim(i uint64) bool {
	if i >= p.n || p.used[i/64]&(1<<(i%64)) != 0 {
		return false
	}
	p.used[i/64] |= 1 << (i % 64)
	p.free--
	for p.low < len(p.used) && p.used[p.low] == ^uint64(0) {
		p.low++
	}
	return true
}

// find claims the lowest free page satisfying pred (any free page when
// pred is nil) and returns it; ok is false when no free page qualifies.
func (p *pool) find(pred func(i uint64) bool) (i uint64, ok bool) {
	for w := p.low; w < len(p.used); w++ {
		for free := ^p.used[w]; free != 0; free &= free - 1 {
			i = uint64(w)*64 + uint64(bits.TrailingZeros64(free))
			if i >= p.n {
				return 0, false
			}
			if pred == nil || pred(i) {
				return i, p.claim(i)
			}
		}
	}
	return 0, false
}
