package main

import (
	"strings"
	"testing"
)

// FuzzResolveSweep drives momexp's flag resolution with arbitrary
// values. resolveSweep is the validation funnel between flag.Parse and
// the sweep runner, so its contract under fuzzing is strict: it must
// never panic, and when it accepts a combination the result must be
// runnable and nothing the user typed may be ignored — at least one
// worker, at most one selector, and no backend flag next to a selector
// that fixes its own. sel is the comma-separated list of selector flags
// given. The checked-in corpus under testdata/fuzz/FuzzResolveSweep
// replays known-interesting combinations as regular test cases.
func FuzzResolveSweep(f *testing.F) {
	f.Add(0, "", false)
	f.Add(1, "", false)        // serial: accepted
	f.Add(8, "", false)        // 8 workers: accepted
	f.Add(-1, "", false)       // negative workers: rejected
	f.Add(0, "table", true)    // a paper table on a chosen backend: accepted
	f.Add(8, "rpsweep", false) // a sweep, 8 workers: accepted
	f.Add(2, "ifsweep", false) // a tenant sweep across workers: accepted
	f.Add(0, "headline", true) // the headline on a chosen backend: accepted
	// One seed per way of dropping a flag on the floor.
	f.Add(0, "mshrsweep,pfsweep", false)  // two selectors
	f.Add(0, "fig,rpsweep", false)        // ... a paper figure and a sweep
	f.Add(0, "cpisweep,statsjson", false) // ... two that write a file
	f.Add(0, "cpisweep", false)           // one of them alone: accepted
	f.Add(0, "latdist", true)             // -latdist compares its own profiles
	f.Add(2, "dramsweep", true)           // ... and -dramsweep its own backends
	f.Add(2, "statsjson", true)           // -statsjson pins its own backends
	f.Add(0, "vasweep", true)             // so does every sweep
	f.Add(0, "nosuchsweep", false)        // not a selector at all
	f.Fuzz(func(t *testing.T, j int, sel string, backend bool) {
		o := sweepOptions{J: j, Backend: backend}
		if sel != "" {
			o.Selectors = strings.Split(sel, ",")
		}
		p, err := resolveSweep(o)
		if err != nil {
			return
		}
		if p.Workers < 1 {
			t.Fatalf("accepted %d workers; the sweeps need at least one", p.Workers)
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
	})
}
