// Package policy implements per-bank DRAM row-buffer management: the
// decision, taken after every bank access, of how long the accessed row
// stays open. The controller in internal/dram keeps the mechanics (when
// a precharge actually occupies the bank, how a pending idle-timer
// close interacts with refresh) and consults a RowPolicy for the
// decision itself, so the policies stay pure prediction state and can
// be table-tested on synthetic access sequences.
//
// Four policies are provided:
//
//   - open: the static open-page policy — rows stay open until a
//     conflict or a refresh closes them (the controller's historical
//     behaviour, and the default).
//   - close: static close-page — every access auto-precharges after its
//     burst. No row hits, no row conflicts.
//   - timer: keep the row open, but precharge once the bank has sat
//     idle for a configurable number of cycles — the middle ground that
//     converts an eventual conflict into a plain activate while still
//     serving temporally-dense hits.
//   - history: a live/dead predictor — one 2-bit saturating counter per
//     bank, trained on whether the next access to the bank would have
//     hit or conflicted on the row the previous access used. Banks
//     whose streams reward open pages keep them; banks that thrash
//     (motionsearch's 0.02 row-hit rate on ddr is the motivating data)
//     converge to close-page.
//
// Training is against the open-page oracle — "would this access have
// hit the row the bank last used?" — which makes the predictor's inputs
// independent of its own decisions: a policy that closes a row still
// learns whether keeping it open would have paid.
package policy

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the row policies. The zero Kind is "unset" and
// behaves as the static open page — the controller's historical
// default — while the explicit Open constant marks a policy the user
// actually named (so spec validation can reject an rpopen token on a
// backend that has no banks, even though it would change nothing).
type Kind int

const (
	// Open is the static open-page policy (explicitly selected).
	Open Kind = iota + 1
	// Close is the static close-page policy (auto-precharge).
	Close
	// Timer precharges after a fixed number of idle cycles.
	Timer
	// History is the per-bank 2-bit live/dead predictor.
	History
)

// DefaultTimerIdle is the idle gap the timer policy uses when the spec
// does not choose one ("rptimer" with no :<n>). Roughly two row-miss
// service times on the commodity profile: long enough that the dense
// phase of a stream keeps its row, short enough that a row abandoned
// between macroblocks is precharged before the conflicting return.
const DefaultTimerIdle = 200

// KeepOpen is the CloseAfter result that leaves the row open until a
// conflict or refresh closes it.
const KeepOpen int64 = -1

// Spec selects a policy by name, plus the timer's idle gap. The zero
// value is the unset spec, which builds the static open policy — the
// controller's default.
type Spec struct {
	Kind Kind
	// Idle is the timer policy's idle gap in cycles; zero on every
	// other kind.
	Idle int64
}

// String renders the spec the way the -rp flag and the rp<name>[:<n>]
// spec token spell it.
func (s Spec) String() string {
	switch s.Kind {
	case Close:
		return "close"
	case Timer:
		return fmt.Sprintf("timer:%d", s.Idle)
	case History:
		return "history"
	}
	return "open"
}

// Parse resolves a policy name: "open", "close", "history", or
// "timer[:<idle>]" (the idle gap defaults to DefaultTimerIdle). Only
// the timer takes a parameter.
func Parse(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(strings.ToLower(s), ":")
	if hasArg && name != "timer" {
		return Spec{}, fmt.Errorf("row policy %q takes no parameter (only timer:<idle>)", s)
	}
	switch name {
	case "open":
		return Spec{Kind: Open}, nil
	case "close":
		return Spec{Kind: Close}, nil
	case "history":
		return Spec{Kind: History}, nil
	case "timer":
		idle := int64(DefaultTimerIdle)
		if hasArg {
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || v <= 0 {
				return Spec{}, fmt.Errorf("timer idle gap %q must be a positive cycle count", arg)
			}
			idle = v
		}
		return Spec{Kind: Timer, Idle: idle}, nil
	}
	return Spec{}, fmt.Errorf("unknown row policy %q (open, close, timer[:<idle>], history)", s)
}

// RowPolicy is the per-bank row-management decision consulted by the
// SDRAM controller. Implementations hold all per-bank state, indexed by
// the controller's global bank number; the controller calls the hooks
// in bank-access order. Implementations are not safe for concurrent
// use, matching the rest of the simulator.
type RowPolicy interface {
	// Train observes the next access to a bank before it is serviced:
	// sameRow reports whether it targets the row the bank's previous
	// access used (the open-page oracle). It returns true when the
	// observation flipped a predictor's decision for the bank — the
	// controller's PredictorFlips stat. Called once per access after
	// the bank's first.
	Train(bank int, sameRow bool) bool
	// CloseAfter is consulted as an access's burst completes: KeepOpen
	// leaves the row open, 0 precharges immediately after the burst
	// (auto-precharge), and a positive n precharges once the bank has
	// sat idle n cycles.
	CloseAfter(bank int) int64
}

// New builds the spec's policy over a part with the given number of
// banks (summed over all channels and ranks).
func (s Spec) New(banks int) RowPolicy {
	switch s.Kind {
	case Close:
		return closePolicy{}
	case Timer:
		return timerPolicy{idle: s.Idle}
	case History:
		h := &historyPolicy{ctr: make([]uint8, banks)}
		for i := range h.ctr {
			h.ctr[i] = historyInit
		}
		return h
	}
	return openPolicy{}
}

// openPolicy is the static open page: never close, nothing to learn.
type openPolicy struct{}

func (openPolicy) Train(int, bool) bool { return false }
func (openPolicy) CloseAfter(int) int64 { return KeepOpen }

// closePolicy is the static close page: auto-precharge after every
// burst.
type closePolicy struct{}

func (closePolicy) Train(int, bool) bool { return false }
func (closePolicy) CloseAfter(int) int64 { return 0 }

// timerPolicy keeps rows open for a fixed idle gap.
type timerPolicy struct{ idle int64 }

func (timerPolicy) Train(int, bool) bool   { return false }
func (t timerPolicy) CloseAfter(int) int64 { return t.idle }

// historyPolicy is the live/dead predictor: a 2-bit saturating counter
// per bank. Counters at or above historyLive predict "live" (keep the
// row open); below it, "dead" (auto-precharge). A same-row observation
// increments, a different-row observation decrements.
type historyPolicy struct{ ctr []uint8 }

// historyLive is the decision threshold, and historyInit every bank's
// initial state: weakly live, so an untrained bank behaves like the
// open-page default until its stream says otherwise.
const (
	historyLive = 2
	historyInit = 2
	historyMax  = 3
)

func (h *historyPolicy) Train(bank int, sameRow bool) bool {
	c := h.ctr[bank]
	was := c >= historyLive
	if sameRow {
		if c < historyMax {
			c++
		}
	} else if c > 0 {
		c--
	}
	h.ctr[bank] = c
	return (c >= historyLive) != was
}

func (h *historyPolicy) CloseAfter(bank int) int64 {
	if h.ctr[bank] >= historyLive {
		return KeepOpen
	}
	return 0
}
