// Package engine holds what the front ends share about advancing a
// simulator: the Mode switch between the two drivers of the one
// pipeline, and Ring, the timing wheel the issue stage parks sleeping
// entries on.
//
// Both modes run the same Step over the same event-driven issue scan.
// Step executes it every cycle; Wheel additionally asks, after each
// step, for the earliest cycle at which anything could observably
// happen and jumps the clock there. The scheduling contract is
// conservative: a subsystem may report a wake-up EARLIER than its next
// state change (the consumer re-evaluates and re-parks), but never
// later — so the per-cycle driver is the wheel with skipping off, and
// skip-on ≡ skip-off is the oracle. The commands always run the wheel;
// Step is chosen from Go, where tests hold the wheel to it.
package engine

// Mode selects the simulation engine.
type Mode int

const (
	// Step is the cycle-stepped oracle: every simulator executes every
	// cycle, skipping nothing.
	Step Mode = iota
	// Wheel is the event-wheel engine: between registered wake-ups,
	// cycles provably free of work are skipped in one jump. Required
	// to be bit-identical to Step.
	Wheel
)

func (m Mode) String() string {
	if m == Wheel {
		return "wheel"
	}
	return "step"
}
