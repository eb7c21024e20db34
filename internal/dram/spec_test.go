package dram

import (
	"strings"
	"testing"
)

// TestSpecRejectsUnknownTokens: every spec segment must parse; a
// misspelled knob (the motivating bug: a typo'd "msrh8" silently
// dropped) or a segment on the wrong backend kind is an error with a
// diagnosable message, never ignored.
func TestSpecRejectsUnknownTokens(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring the error must mention
	}{
		{"sdram/line/frfcfs/ddr/msrh8", "msrh8"},    // typo'd mshr knob, all positionals taken
		{"sdram/msrh8", "msrh8"},                    // typo'd knob landing in the mapping slot
		{"sdram/line/frfcfs/msrh8", "msrh8"},        // typo'd knob landing in the profile slot
		{"sdram/line/frfcfs/ddr/hbm", "hbm"},        // duplicate positional past the last slot
		{"sdram/line/frfcfs/wq0", "wq0"},            // malformed knob value
		{"sdram/line/frfcfs/mshr0", "mshr0"},        // mshr must be positive in a spec
		{"sdram/line/frfcfs/ch", "\"ch\""},          // knob suffix without a number
		{"fixed/line", "sdram"},                     // controller segment on the fixed kind
		{"fixed/8ch", "sdram"},                      // controller knob on the fixed kind
		{"fixed/wq8", "sdram"},                      // ditto
		{"bogus", "unknown dram backend"},           // unknown kind
		{"sdram/line/rr", "rr"},                     // unknown scheduler
		{"sdram/line/frfcfs/lpddr", "lpddr"},        // unknown profile
		{"sdram/line/frfcfs/wq4/wql9", "watermark"}, // low watermark above the threshold
		// Every count has an upper bound the model can build; one message
		// per refusal names the flag, the token and the range. The first
		// used to die in NewSDRAM's makeslice, the rest to exhaust the host.
		{"sdram/4611686018427387904ch", "-dchan / <n>ch: 4611686018427387904 is out of range (want 1..64, a power of two"},
		{"sdram/1073741824ch", "-dchan / <n>ch"},
		{"sdram/128ch", "want 1..64"},
		{"sdram/wq2147483647", "-dwq / wq<n>: 2147483647 is out of range (want 1..1024"},
		{"sdram/wq8/wql1024", "-dwql / wql<n>: 1024 is out of range (want 1..1023, or -1 / wql0 for explicitly off"},
		{"sdram/wqi2147483647", "-dwqi / wqi<n>"},
		{"sdram/win2147483647", "-dwin / win<n>: 2147483647 is out of range (want 1..1024"},
		{"fixed/mshr2147483647", "-mshr / mshr<n>: 2147483647 is out of range (want 1..1024"},
		{"fixed/mshr8/pf2147483647", "-pf / pf<n>: 2147483647 is out of range (want 1..1024"},
		{"fixed/mshr8/pf4d2147483647", "-pfd / pf<n>d<m>: 2147483647 is out of range (want 1..64"},
		{"sdram/mshr8/pf4/pfq2147483647", "-pfq / pfq<n>: 2147483647 is out of range (want 1..1024"},
		{"sdram/mshr8/pf4/pfdec2147483647", "-pfdecay / pfdec<n>: 2147483647 is out of range (want 1..1048576"},
	}
	for _, c := range cases {
		if _, _, err := ParseSpecFull(c.spec, 100); err == nil {
			t.Errorf("ParseSpecFull(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpecFull(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestSpecMSHRKnob: mshr<n> parses on both kinds (it configures the
// vmem layer, not the controller) and round-trips through
// FormatSpecOpts.
func TestSpecMSHRKnob(t *testing.T) {
	for _, spec := range []string{"fixed/mshr8", "sdram/line/frfcfs/mshr8", "sdram/mshr8"} {
		b, knobs, err := ParseSpecFull(spec, 100)
		if err != nil {
			t.Errorf("ParseSpecFull(%q): %v", spec, err)
			continue
		}
		if b == nil || knobs.MSHRs != 8 {
			t.Errorf("ParseSpecFull(%q): MSHRs = %d, want 8", spec, knobs.MSHRs)
		}
	}
	spec := FormatSpecOpts("sdram", "line", "frfcfs", "hbm",
		Knobs{Channels: 4, WQDrain: 8, WQLow: 2, WQIdle: 50, Window: 4, MSHRs: 16})
	if want := "sdram/line/frfcfs/hbm/4ch/wq8/wql2/wqi50/win4/mshr16"; spec != want {
		t.Fatalf("FormatSpecOpts = %q, want %q", spec, want)
	}
	b, knobs, err := ParseSpecFull(spec, 100)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	cfg := b.(*SDRAM).Config()
	if cfg.Channels != 4 || cfg.WQDrain != 8 || cfg.WQLow != 2 || cfg.WQIdle != 50 ||
		cfg.ReorderWindow != 4 || knobs.MSHRs != 16 {
		t.Fatalf("round trip lost knobs: cfg %+v, mshrs %d", cfg, knobs.MSHRs)
	}
	if FormatSpecOpts("fixed", "", "", "", Knobs{MSHRs: 4}) != "fixed/mshr4" {
		t.Fatal("fixed kind must keep the mshr segment")
	}
}

// TestSpecTenantKnobs: tn<n> is a front-end knob like mshr — allowed on
// every kind — while qos and pfdec<n> configure the SDRAM controller
// and carry their own preconditions (qos needs tn≥2, pfdec needs pf).
func TestSpecTenantKnobs(t *testing.T) {
	// tn parses anywhere.
	for _, spec := range []string{"fixed/tn2", "sdram/tn4", "sdram/line/frfcfs/tn4"} {
		if _, knobs, err := ParseSpecFull(spec, 100); err != nil {
			t.Errorf("ParseSpecFull(%q): %v", spec, err)
		} else if knobs.Tenants < 2 {
			t.Errorf("ParseSpecFull(%q): Tenants = %d", spec, knobs.Tenants)
		}
	}

	// The full multi-tenant spec lands in the controller config.
	b, knobs, err := ParseSpecFull("sdram/line/frfcfs/mshr8/pf4/pfdec200/tn4/qos", 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.(*SDRAM).Config()
	if !cfg.QoS || cfg.Tenants != 4 || cfg.PFDecay != 200 {
		t.Errorf("cfg QoS=%v Tenants=%d PFDecay=%d, want true/4/200", cfg.QoS, cfg.Tenants, cfg.PFDecay)
	}
	if knobs.Tenants != 4 || !knobs.QoS || knobs.PFDecay != 200 {
		t.Errorf("knobs = %+v, want Tenants 4, QoS, PFDecay 200", knobs)
	}

	// FormatSpecOpts round-trips the new segments.
	spec := FormatSpecOpts("sdram", "line", "frfcfs", "",
		Knobs{MSHRs: 8, PFStreams: 4, PFDecay: 200, Tenants: 4, QoS: true})
	if want := "sdram/line/frfcfs/pfdec200/qos/mshr8/pf4/tn4"; spec != want {
		t.Fatalf("FormatSpecOpts = %q, want %q", spec, want)
	}
	if _, k2, err := ParseSpecFull(spec, 100); err != nil {
		t.Fatalf("round trip: %v", err)
	} else if k2 != knobs {
		t.Fatalf("round trip lost knobs: %+v vs %+v", k2, knobs)
	}

	// Preconditions and kind restrictions reject with diagnosable errors.
	rejects := []struct {
		spec string
		want string
	}{
		{"sdram/line/frfcfs/qos", "-tenants / tn<n>"},    // qos without tn
		{"sdram/line/frfcfs/tn1/qos", "at least 2"},      // qos on one tenant
		{"sdram/line/frfcfs/pfdec200", "-pf / pf<n>"},    // pfdec without pf
		{"fixed/qos", "sdram"},                           // controller token on fixed
		{"fixed/pfdec100", "sdram"},                      // ditto
		{"sdram/line/frfcfs/tn0", "tn0"},                 // malformed value
		{"sdram/line/frfcfs/tn257", "1..256"},            // more than Request.Tenant can name
		{"fixed/tn257", "1..256"},                        // on every kind
		{"sdram/line/frfcfs/mshr8/pf4/pfdec0", "pfdec0"}, // ditto
	}
	for _, c := range rejects {
		if _, _, err := ParseSpecFull(c.spec, 100); err == nil {
			t.Errorf("ParseSpecFull(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpecFull(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}
