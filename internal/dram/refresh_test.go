package dram

import (
	"math/rand"
	"testing"
)

// refreshUpToRef is the per-epoch reference the closed form replaced:
// each owed epoch closes every row and stacks TRFC on the bank's free
// time.
func refreshUpToRef(cfg Config, c *channel, st *Stats, t int64) {
	if cfg.TREFI <= 0 {
		return
	}
	for t >= c.nextRefresh {
		for b := range c.banks {
			bk := &c.banks[b]
			bk.open = false
			if bk.freeAt < c.nextRefresh {
				bk.freeAt = c.nextRefresh
			}
			bk.freeAt += cfg.TRFC
		}
		c.nextRefresh += cfg.TREFI
		st.Refreshes++
	}
}

// TestRefreshClosedForm drives random channel states through the
// closed-form refreshUpTo and the per-epoch reference, including the
// deep-idle case (thousands of owed epochs) the closed form exists
// for, and the TRFC > TREFI stacking regime Config.Validate refuses
// but the formula still covers.
func TestRefreshClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct{ trefi, trfc int64 }{
		{7800, 120},
		{100, 99},
		{100, 1},
		{64, 64},  // TRFC == TREFI: back-to-back epochs
		{50, 170}, // TRFC > TREFI: epochs stack past their interval
		{1, 1},
	}
	for _, cs := range cases {
		for trial := 0; trial < 200; trial++ {
			cfg := Config{TREFI: cs.trefi, TRFC: cs.trfc}
			s := &SDRAM{cfg: cfg}
			nBanks := 1 + rng.Intn(4)
			mk := func() *channel {
				c := &channel{banks: make([]bank, nBanks), nextRefresh: cfg.TREFI}
				c.nextRefresh += rng.Int63n(1000)
				for b := range c.banks {
					c.banks[b].freeAt = rng.Int63n(3 * cs.trefi)
					c.banks[b].open = rng.Intn(2) == 0
					c.banks[b].openRow = int64(b)
				}
				return c
			}
			c1 := mk()
			c2 := &channel{banks: append([]bank(nil), c1.banks...), nextRefresh: c1.nextRefresh}
			// Mix short catch-ups with deep-idle jumps.
			span := cs.trefi * 4
			if trial%4 == 0 {
				span = cs.trefi * 5000
			}
			at := c1.nextRefresh + rng.Int63n(span) - cs.trefi
			var stRef Stats
			refreshUpToRef(cfg, c2, &stRef, at)
			s.refreshUpTo(c1, at)
			if s.st.Refreshes != stRef.Refreshes {
				t.Fatalf("trefi=%d trfc=%d at=%d: refreshes %d, want %d",
					cs.trefi, cs.trfc, at, s.st.Refreshes, stRef.Refreshes)
			}
			if c1.nextRefresh != c2.nextRefresh {
				t.Fatalf("trefi=%d trfc=%d at=%d: nextRefresh %d, want %d",
					cs.trefi, cs.trfc, at, c1.nextRefresh, c2.nextRefresh)
			}
			for b := range c1.banks {
				got, want := c1.banks[b], c2.banks[b]
				if got.freeAt != want.freeAt || got.open != want.open {
					t.Fatalf("trefi=%d trfc=%d at=%d bank %d: freeAt=%d open=%v, want freeAt=%d open=%v",
						cs.trefi, cs.trfc, at, b, got.freeAt, got.open, want.freeAt, want.open)
				}
			}
		}
	}
}
