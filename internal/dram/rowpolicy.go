package dram

import (
	"fmt"
	"strings"
)

// RowPolicy is the per-bank row-buffer management decision, taken as
// every access's burst completes: leave the row open, or precharge it
// with the burst (auto-precharge).
type RowPolicy uint8

const (
	// RowOpen is the static open page, the zero value and the
	// historical behaviour: a row stays open until a conflict or a
	// refresh closes it.
	RowOpen RowPolicy = iota
	// RowClose is the static close page: every access auto-precharges
	// after its burst. No row hits, no row conflicts.
	RowClose
	// RowHistory is a live/dead predictor: one 2-bit saturating counter
	// per bank, trained on whether the next access to the bank would
	// have hit the row the previous access used (the open-page oracle,
	// so the predictor's inputs do not depend on its own decisions).
	// Banks whose streams reward open pages keep them; banks that
	// thrash (motionsearch on the commodity profile) converge to
	// close-page.
	RowHistory
)

// The history counters: at or above historyLive a bank is predicted
// live (row kept open), below it dead (auto-precharge). Every bank
// starts at historyInit, weakly live, so an untrained bank behaves
// like the open page until its stream says otherwise.
const (
	historyLive = 2
	historyInit = 2
	historyMax  = 3
)

// String names the policy the way the -rp flag and the rp<name> spec
// token spell it.
func (p RowPolicy) String() string {
	switch p {
	case RowClose:
		return "close"
	case RowHistory:
		return "history"
	}
	return "open"
}

// ParseRowPolicy resolves a row policy name: open, close or history.
func ParseRowPolicy(s string) (RowPolicy, error) {
	switch strings.ToLower(s) {
	case "open":
		return RowOpen, nil
	case "close":
		return RowClose, nil
	case "history":
		return RowHistory, nil
	}
	return 0, fmt.Errorf("unknown row policy %q (open, close, history)", s)
}

// train observes the next access to global bank g before it is
// served: sameRow reports whether it targets the row the bank's
// previous access used. It reports whether the observation flipped the
// bank's predicted decision (Stats.PredictorFlips); only the history
// policy has anything to learn.
func (s *SDRAM) train(g int, sameRow bool) bool {
	if s.hist == nil {
		return false
	}
	c := &s.hist[g]
	was := *c >= historyLive
	switch {
	case sameRow && *c < historyMax:
		*c++
	case !sameRow && *c > 0:
		*c--
	}
	return (*c >= historyLive) != was
}

// closesAfter reports whether the row policy precharges global bank
// g's row with the burst now completing instead of leaving it open.
func (s *SDRAM) closesAfter(g int) bool {
	switch s.cfg.RowPolicy {
	case RowClose:
		return true
	case RowHistory:
		return s.hist[g] < historyLive
	}
	return false
}
