package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// TestResolveSweepRejections: every flag combination that used to run
// and quietly ignore part of the command line is an error that names
// the flags involved.
func TestResolveSweepRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    sweepOptions
		want []string // substrings of the error; nil = accepted
	}{
		{"default run", sweepOptions{}, nil},
		{"one sweep, four workers", sweepOptions{J: 4, Selectors: []string{"rpsweep"}}, nil},
		{"figure on a chosen backend", sweepOptions{Selectors: []string{"fig"}, Backend: true}, nil},
		{"statsjson, two workers", sweepOptions{J: 2, Selectors: []string{"statsjson"}}, nil},
		{"two sweeps", sweepOptions{Selectors: []string{"mshrsweep", "pfsweep"}}, []string{"-mshrsweep", "-pfsweep"}},
		{"figure and sweep", sweepOptions{Selectors: []string{"fig", "rpsweep"}}, []string{"-fig", "-rpsweep"}},
		{"unknown selector", sweepOptions{Selectors: []string{"nosuchsweep"}}, []string{"-nosuchsweep"}},
		{"profiles apart", sweepOptions{Outputs: profiles("cpu.pprof", "mem.pprof")}, nil},
		{"profiles off", sweepOptions{Outputs: profiles("", "")}, nil},
		{"one file for both profiles", sweepOptions{Outputs: profiles("p", "p")},
			[]string{`-cpuprofile and -memprofile both write "p"; pick distinct files`}},
		{"report is the cpu profile", sweepOptions{Selectors: []string{"statsjson"},
			Outputs: append([]stats.Output{{Flag: "statsjson", Path: "x"}}, profiles("x", "")...)},
			[]string{`-statsjson and -cpuprofile both write "x"`}},
		{"report is the heap profile", sweepOptions{Selectors: []string{"cpisweep"},
			Outputs: append([]stats.Output{{Flag: "cpisweep", Path: "x"}}, profiles("", "x")...)},
			[]string{`-cpisweep and -memprofile both write "x"`}},
	} {
		_, err := resolveSweep(tc.o)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
	// Backend flags are refused by exactly the selectors that fix their
	// own backends, each in its own words.
	for _, s := range selectors {
		_, err := resolveSweep(sweepOptions{Selectors: []string{s.name}, Backend: true})
		if s.owns == "" {
			if err != nil {
				t.Errorf("-%s honours backend flags but rejected them: %v", s.name, err)
			}
		} else if err == nil || err.Error() != "-"+s.name+" "+s.owns {
			t.Errorf("-%s with backend flags: got %v, want its own refusal", s.name, err)
		}
	}
}

// TestOutputsOpenBeforeTheRun: a report or profile that cannot be
// created is refused, naming its flag, before anything is simulated
// (momsim's test of the same name also checks what is created), and a
// profile on a device that refuses its writes is an error from stop.
func TestOutputsOpenBeforeTheRun(t *testing.T) {
	gone := filepath.Join(t.TempDir(), "missing")
	const full = "writing /dev/full: write /dev/full: no space left on device"
	for _, c := range []struct {
		name     string
		reports  []stats.Output
		cpu, mem string
		want     string
	}{
		{"memprofile", nil, "", gone + "/m.prof", "-memprofile: open " + gone + "/m.prof: no such file or directory"},
		{"cpuprofile", nil, gone + "/c.prof", "", "-cpuprofile: open " + gone + "/c.prof"},
		{"statsjson", []stats.Output{{Flag: "statsjson", Path: gone + "/s.json"}}, "", "",
			"-statsjson: open " + gone + "/s.json: no such file or directory"},
		{"cpisweep", []stats.Output{{Flag: "cpisweep", Path: gone + "/c.json"}}, "", "", "-cpisweep: open " + gone + "/c.json"},
		{"memprofile on a full device", nil, "", "/dev/full", full},
		{"cpuprofile on a full device", nil, "/dev/full", "", full},
	} {
		stop, err := stats.StartProfiles(c.cpu, c.mem, c.reports...)
		if err == nil {
			err = stop()
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

// profiles is the Outputs tail every command line has: the two profile
// paths, "" when off.
func profiles(cpu, mem string) []stats.Output {
	return []stats.Output{{Flag: "cpuprofile", Path: cpu}, {Flag: "memprofile", Path: mem}}
}

// TestSelectorTable: the table generates the flags, so a row that
// misdeclares itself would only show up at run time.
func TestSelectorTable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range selectors {
		if s.name == "" || s.help == "" || s.run == nil {
			t.Errorf("selector %+v is missing a name, help text or run function", s)
		}
		if seen[s.name] {
			t.Errorf("selector -%s declared twice", s.name)
		}
		seen[s.name] = true
		if s.inDefault && s.arg != noArg {
			t.Errorf("-%s takes an argument the default run cannot supply", s.name)
		}
	}
}

// TestKnobFlagsRegisteredWhenTheRowSaysSo: momexp's backend flags are
// exactly the rows of dram.KnobTable marked Momexp, each with the row's
// default and help text — and the two options that went with
// -enginebench, and -engine itself, stay gone.
func TestKnobFlagsRegisteredWhenTheRowSaysSo(t *testing.T) {
	for i := range dram.KnobTable {
		r := &dram.KnobTable[i]
		f := flag.Lookup(r.Flag)
		if (f != nil) != r.Momexp {
			t.Errorf("%s: registered = %v, the row says %v", r, f != nil, r.Momexp)
		}
		if f != nil && f.Usage != r.Help {
			t.Errorf("-%s registered with help %q, want the row's %q", r.Flag, f.Usage, r.Help)
		}
	}
	for _, gone := range []string{"enginebench", "reps", "engine"} {
		if flag.Lookup(gone) != nil {
			t.Errorf("-%s is still a flag", gone)
		}
	}
}
