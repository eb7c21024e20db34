package dram

import (
	"strings"
	"testing"
)

// FuzzParseSpec drives the spec-string parser with arbitrary input.
// The contract under fuzzing:
//
//   - ParseSpecFull never panics, whatever the bytes;
//   - parsing is deterministic (same spec → same backend name and
//     knobs);
//   - an accepted spec round-trips: rendering the parsed configuration
//     through FormatSpecOpts yields a spec the parser accepts again,
//     with the same backend name and the same knobs;
//   - an accepted backend services a tiny batch without panicking.
//
// The seed corpus below covers every token kind; additional inputs
// live in testdata/fuzz/FuzzParseSpec (checked in, so CI replays them
// as regular test cases).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"fixed",
		"fixed/mshr8",
		"fixed/mshr8/pf4",
		"sdram",
		"sdram/line/frfcfs",
		"sdram/bank/fcfs",
		"sdram/row/frfcfs/hbm",
		"sdram/line/frfcfs/hbm/4ch/mshr8/pf8d4",
		"sdram/line/frfcfs/mshr16/pf48d2",
		"sdram/8ch",
		"sdram/rpopen",
		"sdram/rpclose/mshr8",
		"sdram/line/frfcfs/rptimer:150", // rejected: a policy that went (the idle timer)
		"sdram/line/frfcfs/rptimer",     // rejected: ditto
		"sdram/rphistory/mshr64/pf48d2",
		"sdram/rphistory:3",   // rejected: no policy takes a parameter
		"sdram/rptimer:0",     // rejected: a policy that went
		"sdram/rplru",         // rejected: unknown policy
		"fixed/rpopen",        // rejected: controller knob on fixed
		"sdram/mshr8/pfq2",    // rejected: a token the presets replaced
		"sdram/mshr8/pf4/pfq", // rejected: ditto
		"sdram/pf8",           // rejected: pf without mshr >= 2
		"sdram/msrh8",         // rejected: misspelled knob
		"sdram//frfcfs",       // rejected: empty positional token
		"fixed/line",          // rejected: controller segment on fixed
		"sdram/line/frfcfs/pf0d4",
		"",
		"/",
		"sdram/line/frfcfs/pf8d",
		"sdram/line/frfcfs/pf-1d2",
		"sdram/line/frfcfs/mshr99999999999999999999",
		"sdram/line/frfcfs/tn4/qos",
		"sdram/line/frfcfs/mshr8/pf4/tn4/qos",
		"fixed/tn2",
		"sdram/qos",         // rejected: qos without tenants
		"sdram/tn1/qos",     // rejected: qos needs at least 2 tenants
		"sdram/pfdec100",    // rejected: a token the presets replaced
		"fixed/qos",         // rejected: controller token on fixed
		"fixed/pfdec50",     // rejected: ditto, on fixed
		"sdram/tn0",         // rejected: malformed tenant count
		"sdram/tn-3",        // rejected: ditto
		"sdram/mshr8/pfdec", // rejected: ditto, with no count
		"sdram/tn257",       // rejected: more tenants than a request can name
		// Rejected: counts past what the model can build (these panicked
		// in NewSDRAM or exhausted the host before the table's ranges).
		"sdram/4611686018427387904ch",
		"sdram/1073741824ch",
		"sdram/wq2147483647", // and a token the presets replaced
		"fixed/mshr8/pf2147483647",
		"fixed/mshr2147483647",
		"sdram/mshr8/pf4d2147483647",
		"sdram/1024ch/mshr1024/pf1024d64",         // every count at its maximum but the channels past theirs
		"sdram/64ch/mshr1024/pf1024d64/tn256/qos", // accepted: every count at its maximum
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		b1, k1, err1 := ParseSpecFull(spec, 100)
		b2, k2, err2 := ParseSpecFull(spec, 100)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic acceptance of %q: %v vs %v", spec, err1, err2)
		}
		if err1 != nil {
			return
		}
		if b1 == nil || b1.Name() == "" {
			t.Fatalf("accepted spec %q produced no backend", spec)
		}
		if b1.Name() != b2.Name() || k1 != k2 {
			t.Fatalf("non-deterministic parse of %q: %s/%+v vs %s/%+v",
				spec, b1.Name(), k1, b2.Name(), k2)
		}
		// Round-trip through the canonical renderer. The profile is not
		// recoverable from the backend (it only shapes the config), so
		// the round-trip holds the backend name and the knobs fixed.
		kind, mapping, sched := "fixed", "", ""
		if sd, ok := b1.(*SDRAM); ok {
			kind = "sdram"
			mapping = sd.Config().Mapping.String()
			sched = sd.Config().Scheduler.String()
		}
		spec2 := FormatSpecOpts(kind, mapping, sched, "", k1)
		b3, k3, err3 := ParseSpecFull(spec2, 100)
		if err3 != nil {
			t.Fatalf("canonical form %q of accepted spec %q rejected: %v", spec2, spec, err3)
		}
		if b3.Name() != b1.Name() || k3 != k1 {
			t.Fatalf("round-trip of %q via %q drifted: %s/%+v vs %s/%+v",
				spec, spec2, b1.Name(), k1, b3.Name(), k3)
		}
		// An accepted backend must service a batch.
		comps := b1.Submit([]Request{
			{Addr: 0x1000, At: 0},
			{Addr: 0x9000, Write: true, At: 1},
		})
		if len(comps) != 2 {
			t.Fatalf("spec %q: Submit returned %d completions, want 2", spec, len(comps))
		}
		for _, c := range comps {
			if c.Done <= c.At {
				t.Fatalf("spec %q: completion not after arrival: %+v", spec, c)
			}
		}
	})
}

// TestSpecPrefetchKnob pins the pf token grammar the fuzzer explores.
func TestSpecPrefetchKnob(t *testing.T) {
	cases := []struct {
		spec    string
		ok      bool
		streams int
		degree  int
	}{
		{"sdram/line/frfcfs/mshr8/pf8", true, 8, 0},
		{"sdram/line/frfcfs/mshr8/pf8d4", true, 8, 4},
		{"fixed/mshr4/pf2d1", true, 2, 1},
		{"sdram/line/frfcfs/pf8", false, 0, 0},       // pf without mshr
		{"sdram/line/frfcfs/mshr1/pf8", false, 0, 0}, // the blocking model
		{"sdram/line/frfcfs/mshr8/pf0", false, 0, 0},
		{"sdram/line/frfcfs/mshr8/pf8d0", false, 0, 0},
		{"sdram/line/frfcfs/mshr8/pf8d", false, 0, 0}, // trailing separator, no degree
		{"sdram/line/frfcfs/mshr8/pfd4", false, 0, 0},
		{"sdram/line/frfcfs/mshr8/pfxd4", false, 0, 0},
		{"sdram/line/frfcfs/mshr8/pf8dx", false, 0, 0},
	}
	for _, c := range cases {
		_, knobs, err := ParseSpecFull(c.spec, 100)
		if c.ok != (err == nil) {
			t.Errorf("%q: accepted=%v, want %v (err %v)", c.spec, err == nil, c.ok, err)
			continue
		}
		if c.ok && (knobs.PFStreams != c.streams || knobs.PFDegree != c.degree) {
			t.Errorf("%q: pf knobs = %d/%d, want %d/%d", c.spec, knobs.PFStreams, knobs.PFDegree, c.streams, c.degree)
		}
	}
	// The formatted form of parsed pf knobs parses back identically.
	for _, spec := range []string{"sdram/line/frfcfs/mshr8/pf8d4", "fixed/mshr4/pf2d1"} {
		_, k, err := ParseSpecFull(spec, 100)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		kind := "fixed"
		if strings.HasPrefix(spec, "sdram") {
			kind = "sdram"
		}
		spec2 := FormatSpecOpts(kind, "line", "frfcfs", "", k)
		if _, k2, err := ParseSpecFull(spec2, 100); err != nil || k2 != k {
			t.Errorf("%q → %q: knobs %+v vs %+v (err %v)", spec, spec2, k, k2, err)
		}
	}
}
