package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vmem"
)

// The example's group of one must time its stream exactly as the
// reference loop does, and run must report what the group measured.
func TestGroupOfOneMatchesSimulateStream(t *testing.T) {
	stream, _, _ := record()
	g := machine(stream)
	g.Run()
	ms := core.NewMemSystem(core.MemVectorCache3D, vmem.DefaultTiming(), core.MOMCore().Lanes, false)
	want := core.SimulateStream(core.MOMCore(), ms, stream, engine.Step)
	if got := g.Stats(0).Cycles; got != want.Cycles {
		t.Errorf("group of one: %d cycles, SimulateStream %d", got, want.Cycles)
	}
	if got, ref := g.Mem(0).L2Activity(), ms.L2Activity(); got != ref {
		t.Errorf("group of one: L2 activity %d, SimulateStream %d", got, ref)
	}

	var out strings.Builder
	run(&out)
	for _, line := range []string{
		fmt.Sprintf("simulated: %d cycles, IPC %.2f\n", want.Cycles, want.IPC()),
		fmt.Sprintf("L2 accesses: %d ", ms.L2Activity()),
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("run printed\n%s\nwithout %q", out.String(), line)
		}
	}
}
