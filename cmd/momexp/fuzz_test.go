package main

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// FuzzResolveSweep drives momexp's flag resolution with arbitrary
// values. resolveSweep is the validation funnel between flag.Parse and
// the sweep runner, so its contract under fuzzing is strict: it must
// never panic, and when it accepts a combination the result must be
// runnable and nothing the user typed may be ignored — a valid engine
// mode, at least one worker, at least one benchmark repetition, at most
// one selector, and no backend flag next to a selector that fixes its
// own. sel is the comma-separated list of selector flags given. The
// checked-in corpus under testdata/fuzz/FuzzResolveSweep replays
// known-interesting combinations as regular test cases.
func FuzzResolveSweep(f *testing.F) {
	f.Add("", 0, 0, "", false)
	f.Add("step", 1, 1, "", false)         // -reps with nothing to read it: rejected
	f.Add("wheel", 8, 5, "", false)        // likewise
	f.Add("turbo", 4, 3, "", false)        // unknown engine: rejected
	f.Add("Wheel", 2, 2, "", false)        // engine names are case-sensitive: rejected
	f.Add("wheel", -1, 3, "", false)       // negative workers: rejected
	f.Add("wheel", 4, -2, "", false)       // negative reps: rejected
	f.Add("wheel", 8, 0, "rpsweep", false) // a sweep on the wheel, 8 workers: accepted
	f.Add("", 0, 5, "enginebench", false)  // the one reader of -reps: accepted
	f.Add("step", 0, 0, "headline", true)  // the headline on a chosen backend: accepted
	// One seed per way of dropping a flag on the floor.
	f.Add("", 0, 0, "mshrsweep,pfsweep", false) // two selectors
	f.Add("", 0, 0, "fig,rpsweep", false)       // ... a paper figure and a sweep
	f.Add("", 0, 5, "", false)                  // -reps without -enginebench
	f.Add("", 0, 5, "cpisweep", false)          // ... or with another selector
	f.Add("wheel", 0, 0, "enginebench", false)  // -enginebench measures both engines
	f.Add("", 2, 0, "enginebench", false)       // ... one cell at a time
	f.Add("wheel", 2, 0, "statsjson", true)     // -statsjson pins its own backends
	f.Add("", 0, 0, "vasweep", true)            // so does every sweep
	f.Add("", 0, 0, "nosuchsweep", false)       // not a selector at all
	f.Fuzz(func(t *testing.T, eng string, j, reps int, sel string, backend bool) {
		o := sweepOptions{Engine: eng, J: j, Reps: reps, Backend: backend}
		if sel != "" {
			o.Selectors = strings.Split(sel, ",")
		}
		p, err := resolveSweep(o)
		if err != nil {
			return
		}
		if _, perr := engine.ParseMode(eng); perr != nil {
			t.Fatalf("accepted an unknown engine %q", eng)
		}
		if p.Mode != engine.Step && p.Mode != engine.Wheel {
			t.Fatalf("resolved an impossible engine mode %d", p.Mode)
		}
		if p.Workers < 1 {
			t.Fatalf("accepted %d workers; the sweeps need at least one", p.Workers)
		}
		if p.Reps < 1 {
			t.Fatalf("accepted %d benchmark reps; best-of needs at least one", p.Reps)
		}
		if j > 0 && p.Workers != j {
			t.Fatalf("-j %d resolved to %d workers", j, p.Workers)
		}
		if len(o.Selectors) > 1 {
			t.Fatalf("accepted %d selectors %v; all but one would be ignored", len(o.Selectors), o.Selectors)
		}
		if (p.Selector != nil) != (len(o.Selectors) == 1) || p.Selector != nil && p.Selector.name != o.Selectors[0] {
			t.Fatalf("selectors %v resolved to %+v", o.Selectors, p.Selector)
		}
		if s := p.Selector; s != nil && backend && s.owns != "" {
			t.Fatalf("accepted backend flags with -%s, which %s", s.name, s.owns)
		}
		if bench := p.Selector != nil && p.Selector.bench; reps != 0 && !bench || bench && (eng != "" || j != 0) {
			t.Fatalf("accepted -engine %q -j %d -reps %d with selector %v", eng, j, reps, o.Selectors)
		}
	})
}
