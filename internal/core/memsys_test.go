package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/vmem"
)

// TestFlatDefaultIsFixed: a Timing that names no backend gets the seed's
// flat latency as dram.NewFixed(MemLatency) — the one main-memory model
// below NewMemSystem — so it must export the same whole-registry snapshot
// as the same Timing naming that backend, on every memory system, both
// miss models and both engines.
func TestFlatDefaultIsFixed(t *testing.T) {
	for _, kind := range []MemKind{MemIdeal, MemMultiBanked, MemVectorCache, MemVectorCache3D} {
		for _, mshrs := range []int{0, 8} {
			for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
				flat := vmem.Timing{L2Latency: 20, MemLatency: 100, MSHRs: mshrs}
				fixed := flat
				fixed.Backend = dram.NewFixed(100)
				got := timSnapshot(t, GSMEnc(), kernels.MOM3D, kind, flat, nil, runOn(mode))
				want := timSnapshot(t, GSMEnc(), kernels.MOM3D, kind, fixed, nil, runOn(mode))
				if got != want {
					t.Errorf("%v/mshr%d/%v: no backend named diverged from dram.NewFixed(100)\n--- default ---\n%s--- fixed ---\n%s",
						kind, mshrs, mode, got, want)
				}
			}
		}
	}
}

// TestTenantCountBounds: a tenant count a dram.Request cannot name is a
// construction error that says what the limit is (the CLIs and spec
// parser refuse it first, as an error).
func TestTenantCountBounds(t *testing.T) {
	for _, n := range []int{0, 257} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "1..256") {
					t.Errorf("NewTenantMemSystems(n=%d) panicked with %q, want the 1..256 limit named", n, msg)
				}
			}()
			NewTenantMemSystems(MemVectorCache3D, vmem.DefaultTiming(), 4, false, n, nil)
			t.Errorf("NewTenantMemSystems(n=%d) did not panic", n)
		}()
	}
	if got := len(NewTenantMemSystems(MemVectorCache3D, vmem.DefaultTiming(), 4, false, 256, nil)); got != 256 {
		t.Errorf("256 tenants built %d views", got)
	}
}

// TestColoringNeedsPageChannels: page coloring is refused where it
// would be first-fit under another name. That is a backend without a
// channel decode or with one channel, and a mapping whose channel bits
// all lie inside the 4 KiB page, so that every page starts on channel
// 0: the line mapping up to 32 channels (128-byte lines), and the bank
// mapping on the hbm profile's 2 KiB rows at two channels. Where page
// starts reach some channels (line at 64, bank on hbm's eight) or all,
// it builds.
func TestColoringNeedsPageChannels(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"sdram/line", "selects all 2 channels with address bits inside the 4 KiB page, so every page starts on channel 0: give a mapping with channel bits above the page, such as -dmap bank"},
		{"sdram/line/32ch", "selects all 32 channels with address bits inside the 4 KiB page"},
		{"sdram/bank/frfcfs/hbm/2ch", "selects all 2 channels with address bits inside the 4 KiB page"},
		{"sdram/line/64ch", ""},
		{"sdram/bank/frfcfs/hbm", ""},
		{"sdram/bank", ""},
		{"sdram/bank/64ch", ""},
		{"sdram/row", ""},
		{"sdram/line/1ch", "has a single channel (-dram fixed, or -dchan 1), so coloring would be first-fit: give -dram sdram"},
		{"fixed", "has a single channel (-dram fixed, or -dchan 1), so coloring would be first-fit: give -dram sdram"},
	} {
		backend, _, err := dram.ParseSpecFull(c.spec, 100)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		_, err = NewVM("color", 1, backend)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: NewVM(color) = %v, want %q", c.spec, err, c.want)
		}
		if _, err := NewVM("first", 1, backend); err != nil {
			t.Errorf("%s: NewVM(first) = %v", c.spec, err)
		}
	}
}
