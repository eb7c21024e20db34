package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/dram"
	"repro/internal/dram/knobtest"
	"repro/internal/engine"
	"repro/internal/kernels"
)

// machineCycleCap is far past any test-scale kernel on the slowest
// machine the knob ranges admit; a run still going there is a hang.
const machineCycleCap = 50_000_000

// FuzzMachine fuzzes the simulator, not a parser: any machine the knob
// table admits — each knob somewhere in its row's range, a test-scale
// kernel, an ISA and memory-system pair — must build without panicking,
// run to completion under Step and under Advance within a cycle cap,
// and report the same core.Stats and the same registry snapshot from
// both. A selection Build or NewVM still refuses is not a machine and
// is skipped.
func FuzzMachine(f *testing.F) {
	benches := []kernels.Benchmark{GSMEnc(), MPEG2Enc(), MPEG2Dec(), JPEGEnc(), JPEGDec(),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig())}
	machines := []struct {
		v    kernels.Variant
		kind MemKind
	}{{kernels.MOM3D, MemVectorCache3D}, {kernels.MOM, MemVectorCache}, {kernels.MMX, MemMultiBanked}, {kernels.MOM, MemMultiBanked}}

	// One seed per table row at its maximum, on the banked part and the
	// paper's machine; then one per row at its minimum, on each kernel
	// and machine in turn.
	f.Add([]byte{}, uint8(0), uint8(0), true)
	for _, v := range []uint16{0xFFFF, 1} {
		for i := range dram.KnobTable {
			pick := make([]byte, 2*len(dram.KnobTable))
			binary.LittleEndian.PutUint16(pick[2*i:], v)
			var at uint8
			if v == 1 {
				at = uint8(i)
			}
			f.Add(pick, at, at, true)
		}
	}
	f.Fuzz(func(t *testing.T, pick []byte, bench, machine uint8, sdram bool) {
		kind := "fixed"
		if sdram {
			kind = "sdram"
		}
		sel := knobtest.Pick(t, pick, sdram)
		backend, err := sel.Build(kind, 100)
		if err == nil && sel.VA != "" {
			_, err = NewVM(sel.VA, 1, backend)
		}
		if err != nil {
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
