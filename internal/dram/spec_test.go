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
		{"sdram/line/frfcfs/ddr/msrh8", "msrh8"}, // typo'd mshr knob, all positionals taken
		{"sdram/msrh8", "msrh8"},                 // typo'd knob landing in the mapping slot
		{"sdram/line/frfcfs/msrh8", "msrh8"},     // typo'd knob landing in the profile slot
		{"sdram/line/frfcfs/ddr/hbm", "hbm"},     // duplicate positional past the last slot
		{"sdram/line/frfcfs/pf0", "pf0"},         // malformed knob value
		{"sdram/line/frfcfs/mshr0", "mshr0"},     // mshr must be positive in a spec
		{"sdram/line/frfcfs/ch", "\"ch\""},       // knob suffix without a number
		{"fixed/line", "sdram"},                  // controller segment on the fixed kind
		{"fixed/8ch", "sdram"},                   // controller knob on the fixed kind
		{"bogus", "unknown dram backend"},        // unknown kind
		{"sdram/line/rr", "rr"},                  // unknown scheduler
		{"sdram/line/frfcfs/lpddr", "lpddr"},     // unknown profile
		// Every count has an upper bound the model can build; one message
		// per refusal names the flag, the token and the range. The first
		// used to die in NewSDRAM's makeslice, the rest to exhaust the host.
		{"sdram/4611686018427387904ch", "-dchan / <n>ch: 4611686018427387904 is out of range (want 1..64, a power of two"},
		{"sdram/1073741824ch", "-dchan / <n>ch"},
		{"sdram/128ch", "want 1..64"},
		{"fixed/mshr2147483647", "-mshr / mshr<n>: 2147483647 is out of range (want 1..1024"},
		{"fixed/mshr8/pf2147483647", "-pf / pf<n>: 2147483647 is out of range (want 1..1024"},
		{"fixed/mshr8/pf4d2147483647", "-pfd / pf<n>d<m>: 2147483647 is out of range (want 1..64"},
		// The write-drain, reorder-window and prefetch-queue knobs are
		// the presets' values, no longer spellings.
		{"sdram/wq8", "unknown token"},
		{"sdram/win2", "unknown token"},
		{"sdram/wql2", "unknown token"},
		{"sdram/wqi30", "unknown token"},
		{"sdram/mshr8/pf4/pfq4", "unknown token"},
		{"sdram/mshr8/pf4/pfdec200", "unknown token"},
	}
	for _, c := range cases {
		if _, _, err := ParseSpecFull(c.spec, 100); err == nil {
			t.Errorf("ParseSpecFull(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpecFull(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestSpecNamesThePositionalSlot: a value that is valid in another
// positional slot ("hbm" is a profile) but lands in an earlier one is
// refused with the slot it was read as and the order the slots come in,
// not as a bare unknown token.
func TestSpecNamesThePositionalSlot(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"sdram/hbm", `"hbm" in spec "sdram/hbm": not a knob, nor a -dmap value (line|bank|row), the positional field its place holds; the positional fields come first, in the order listed (want <line|bank|row> <fcfs|frfcfs> <ddr|hbm> `},
		{"sdram/bank/hbm", `nor a -dsched value (fcfs|frfcfs), the positional field`},
		{"sdram/line/frfcfs/bank", `nor a -dprof value (ddr|hbm), the positional field`},
	} {
		if _, _, err := ParseSpecFull(c.spec, 100); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpecFull(%q) = %v, want an error containing %q", c.spec, err, c.want)
		}
	}
	// The slots' order is unchanged: the same values in their places parse.
	if _, _, err := ParseSpecFull("sdram/line/frfcfs/hbm", 100); err != nil {
		t.Errorf("sdram/line/frfcfs/hbm: %v", err)
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
	spec := FormatSpecOpts("sdram", "line", "frfcfs", "hbm", Knobs{Channels: 4, MSHRs: 16})
	if want := "sdram/line/frfcfs/hbm/4ch/mshr16"; spec != want {
		t.Fatalf("FormatSpecOpts = %q, want %q", spec, want)
	}
	b, knobs, err := ParseSpecFull(spec, 100)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	cfg := b.(*SDRAM).Config()
	if cfg.Channels != 4 || knobs.MSHRs != 16 {
		t.Fatalf("round trip lost knobs: cfg %+v, mshrs %d", cfg, knobs.MSHRs)
	}
	if FormatSpecOpts("fixed", "", "", "", Knobs{MSHRs: 4}) != "fixed/mshr4" {
		t.Fatal("fixed kind must keep the mshr segment")
	}
}

// TestSpecTenantKnobs: tn<n> is a front-end knob like mshr — allowed on
// every kind — while qos configures the SDRAM controller and carries
// its own precondition (tn≥2).
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
	b, knobs, err := ParseSpecFull("sdram/line/frfcfs/mshr8/pf4/tn4/qos", 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.(*SDRAM).Config()
	if !cfg.QoS || cfg.Tenants != 4 {
		t.Errorf("cfg QoS=%v Tenants=%d, want true/4", cfg.QoS, cfg.Tenants)
	}
	if knobs.Tenants != 4 || !knobs.QoS {
		t.Errorf("knobs = %+v, want Tenants 4, QoS", knobs)
	}

	// FormatSpecOpts round-trips the new segments.
	spec := FormatSpecOpts("sdram", "line", "frfcfs", "",
		Knobs{MSHRs: 8, PFStreams: 4, Tenants: 4, QoS: true})
	if want := "sdram/line/frfcfs/qos/mshr8/pf4/tn4"; spec != want {
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
		{"sdram/line/frfcfs/qos", "-tenants / tn<n>"}, // qos without tn
		{"sdram/line/frfcfs/tn1/qos", "at least 2"},   // qos on one tenant
		{"fixed/qos", "sdram"},                        // controller token on fixed
		{"sdram/line/frfcfs/tn0", "tn0"},              // malformed value
		{"sdram/line/frfcfs/tn257", "1..256"},         // more than Request.Tenant can name
		{"fixed/tn257", "1..256"},                     // on every kind
	}
	for _, c := range rejects {
		if _, _, err := ParseSpecFull(c.spec, 100); err == nil {
			t.Errorf("ParseSpecFull(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpecFull(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}
