package core

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
)

// machineCycleCap is far past any test-scale kernel on the slowest
// machine the knob ranges admit; a run still going there is a hang.
const machineCycleCap = 50_000_000

// pickKnobs turns fuzz bytes into a backend selection that stays inside
// every row of dram.KnobTable: two bytes per row pick its value (zero =
// unset, all ones = the row's maximum or last name), and whatever a set
// row needs is raised to the least value it needs.
func pickKnobs(t *testing.T, pick []byte, sdram bool) dram.Selection {
	byFlag := map[string]*dram.Knob{}
	val := map[string]string{} // by flag, as the flag spells it
	for i := range dram.KnobTable {
		r := &dram.KnobTable[i]
		byFlag[r.Flag] = r
		if 2*i+1 >= len(pick) || r.SDRAM && !sdram {
			continue
		}
		v := int(binary.LittleEndian.Uint16(pick[2*i:]))
		names := strings.Split(strings.Replace(r.Names, "timer[:<n>]", "timer:"+strconv.Itoa(v), 1), "|")
		switch {
		case v == 0:
		case r.Max == 0 && r.Names == "": // a switch
			val[r.Flag] = "true"
		case r.Max == 0: // a named value
			val[r.Flag] = names[min(v-1, len(names)-1)]
		case v == 1 && r.Off:
			val[r.Flag] = "-1"
		default: // a count
			n := r.Max
			if v != 0xFFFF {
				n = r.Min + (v-1)%(r.Max-r.Min+1)
			}
			if r.Pow2 {
				n = 1 << (bits.Len(uint(n)) - 1)
			}
			val[r.Flag] = strconv.Itoa(n)
		}
	}
	for flag := range val {
		for k := byFlag[flag]; k.Needs != ""; k = byFlag[k.Needs] {
			if have, _ := strconv.Atoi(val[k.Needs]); have < max(k.NeedsMin, 1) {
				val[k.Needs] = strconv.Itoa(max(k.NeedsMin, 1))
			}
		}
	}
	// The one relation the rows do not carry: the drain low watermark
	// sits below the drain threshold.
	if low, _ := strconv.Atoi(val["dwql"]); low > 0 {
		if drain, _ := strconv.Atoi(val["dwq"]); drain <= low {
			val["dwq"] = strconv.Itoa(low + 1)
		}
	}
	sel := dram.Selection{Mapping: "line", Sched: "frfcfs"}
	for flag, v := range val {
		if err := byFlag[flag].Set(&sel, v); err != nil {
			t.Fatalf("%s: a value from the row's own range does not set: %v", byFlag[flag], err)
		}
	}
	return sel
}

// FuzzMachine fuzzes the simulator, not a parser: any machine the knob
// table admits — each knob somewhere in its row's range, a test-scale
// kernel, an ISA and memory-system pair — must build without panicking,
// run to completion under Step and under Advance within a cycle cap,
// and report the same core.Stats and the same registry snapshot from
// both. A selection Build still refuses is not a machine and is
// skipped.
func FuzzMachine(f *testing.F) {
	benches := []kernels.Benchmark{GSMEnc(), MPEG2Enc(), MPEG2Dec(), JPEGEnc(), JPEGDec(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig())}
	machines := []struct {
		v    kernels.Variant
		kind MemKind
	}{{kernels.MOM3D, MemVectorCache3D}, {kernels.MOM, MemVectorCache}, {kernels.MMX, MemMultiBanked}, {kernels.MOM, MemMultiBanked}}

	// One seed per table row at its maximum, on the banked part and the
	// paper's machine.
	f.Add([]byte{}, uint8(0), uint8(0), true)
	for i := range dram.KnobTable {
		pick := make([]byte, 2*len(dram.KnobTable))
		pick[2*i], pick[2*i+1] = 0xFF, 0xFF
		f.Add(pick, uint8(0), uint8(0), true)
	}
	f.Fuzz(func(t *testing.T, pick []byte, bench, machine uint8, sdram bool) {
		kind := "fixed"
		if sdram {
			kind = "sdram"
		}
		sel := pickKnobs(t, pick, sdram)
		if _, err := sel.Build(kind, 100); err != nil {
			t.Skip(err)
		}
		bm, m, spec := benches[int(bench)%len(benches)], machines[int(machine)%len(machines)], sel.Spec(kind)
		run := func(mode engine.Mode) string {
			return driveSnapshot(t, bm, m.v, m.kind, spec, nil, func(s *Sim) {
				for s.Running() {
					if mode == engine.Wheel {
						s.Advance()
					} else {
						s.Step()
					}
					if s.Now() > machineCycleCap {
						t.Fatalf("%s %v/%v on %s: still running at cycle %d under %v", bm.Name, m.v, m.kind, spec, s.Now(), mode)
					}
				}
			})
		}
		if step, wheel := run(engine.Step), run(engine.Wheel); step != wheel {
			t.Errorf("%s %v/%v on %s: Advance diverged from Step\n--- step ---\n%s--- wheel ---\n%s",
				bm.Name, m.v, m.kind, spec, step, wheel)
		}
	})
}
