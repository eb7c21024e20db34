package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
)

func TestDRAMSweepShape(t *testing.T) {
	r := smallRunner()
	tab := DRAMSweep(r)
	if len(tab.Rows) != 5 || len(tab.Cells) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	sawDiff := false
	bestHit := 0.0
	for i, row := range tab.Cells {
		bench := tab.Rows[i].Bench
		// Column 0 is the flat model, then one per mapping, then fcfs;
		// the detail section reads the mapping cells again.
		if len(row) != 2+2*len(DRAMMappings) {
			t.Fatalf("%s: per-mapping columns missing", bench)
		}
		fixed := row[0].Sim.Core.Cycles
		for j, m := range DRAMMappings {
			res := row[1+j].Sim
			if res.Core.Cycles <= 0 {
				t.Errorf("%s/%s: cycles %d", bench, m, res.Core.Cycles)
			}
			hit := res.DRAM.RowHitRate()
			if hit < 0 || hit > 1 {
				t.Errorf("%s/%s: row hit rate %f out of range", bench, m, hit)
			}
			if res.Core.Cycles != fixed {
				sawDiff = true
			}
			bestHit = max(bestHit, hit)
		}
	}
	if !sawDiff {
		t.Error("SDRAM and fixed backends produced identical cycles everywhere")
	}
	// The streaming kernels must keep rows open under at least one
	// mapping (the acceptance bar for the banked model).
	if bestHit < 0.5 {
		t.Errorf("best row hit rate = %f, want > 0.5", bestHit)
	}
	out := RenderDRAMSweep(tab)
	if !strings.Contains(out, "DRAM sweep") || !strings.Contains(out, "gsmencode") {
		t.Error("render missing header or benchmark rows")
	}
}

func TestChannelScalingSweepShape(t *testing.T) {
	// The test-scale benchmarks touch DRAM too rarely (a few dozen cold
	// misses over the whole run) to exhibit bandwidth scaling, so this
	// only checks the sweep's shape; TestChannelScalingFullGSM asserts
	// the scaling itself on a full-size streaming kernel.
	r := smallRunner()
	tab := DRAMChannelScaling(r)
	if len(tab.Cells) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Cells))
	}
	for i, row := range tab.Cells {
		if len(row) != len(DRAMChannels) {
			t.Fatalf("%s: missing columns", tab.Rows[i].Bench)
		}
		for j, c := range row {
			if c.Sim.Core.Cycles <= 0 || c.Sim.DRAM.AchievedBandwidth() <= 0 {
				t.Errorf("%s/%dch: cycles %d bw %f", tab.Rows[i].Bench, DRAMChannels[j],
					c.Sim.Core.Cycles, c.Sim.DRAM.AchievedBandwidth())
			}
		}
	}
	out := RenderChannelScaling(tab)
	if !strings.Contains(out, "channel scaling") || !strings.Contains(out, "gsmencode") {
		t.Error("render missing header or benchmark rows")
	}
}

func TestChannelScalingFullGSM(t *testing.T) {
	// The acceptance bar for the per-channel-sharded controller: on a
	// full-size streaming kernel, 4 channels achieve more DRAM
	// bandwidth than 1. gsmencode is the densest DRAM client of the
	// suite and the simulation is deterministic, so the comparison is
	// exact.
	r := NewRunnerWith([]kernels.Benchmark{kernels.GSMEncode(kernels.DefaultGSMEncConfig())})
	one := r.cell(bestKey("gsmencode", "sdram/line/frfcfs/1ch"))
	four := r.cell(bestKey("gsmencode", "sdram/line/frfcfs/4ch"))
	if b1, b4 := one.DRAM.AchievedBandwidth(), four.DRAM.AchievedBandwidth(); b4 <= b1 {
		t.Errorf("4-channel bandwidth %.2f B/cyc not above 1-channel %.2f", b4, b1)
	}
	if four.Core.Cycles > one.Core.Cycles {
		t.Errorf("4-channel run slower: %d vs %d cycles", four.Core.Cycles, one.Core.Cycles)
	}
}

func TestFixedSpecMatchesSeedModel(t *testing.T) {
	// The explicit fixed backend must reproduce the flat-latency seed
	// model cycle-for-cycle.
	r := smallRunner()
	for _, bench := range r.Benchmarks() {
		seed := r.cell(bestKey(bench, ""))
		fixed := r.cell(bestKey(bench, "fixed"))
		if seed.Core.Cycles != fixed.Core.Cycles {
			t.Errorf("%s: fixed backend %d cycles vs seed model %d", bench, fixed.Core.Cycles, seed.Core.Cycles)
		}
	}
}

func TestRunnerDRAMSpecAppliesToSim(t *testing.T) {
	r := smallRunner()
	if err := r.SetDRAM("sdram/bank/frfcfs"); err != nil {
		t.Fatal(err)
	}
	res := r.Sim("gsmencode", kernels.MOM3D, core.MemVectorCache3D, baseLat)
	if res.Key.DRAM != "sdram/bank/frfcfs" {
		t.Fatalf("key DRAM spec = %q", res.Key.DRAM)
	}
	if res.DRAM.Accesses == 0 {
		t.Fatal("sdram stats empty: backend was not threaded through")
	}
	// A spec the runner could only panic on later is an error now, and
	// leaves the backend as it was.
	for _, bad := range []string{"sdram/bank/frfcfs/msrh8", "sdram/tn2", "sdram/line/vacolor"} {
		if err := r.SetDRAM(bad); err == nil {
			t.Errorf("SetDRAM(%q) accepted", bad)
		}
	}
	if res := r.Sim("gsmencode", kernels.MOM3D, core.MemVectorCache3D, baseLat); res.Key.DRAM != "sdram/bank/frfcfs" {
		t.Errorf("after refused specs, key DRAM spec = %q", res.Key.DRAM)
	}
}
