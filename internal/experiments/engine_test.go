package experiments

import (
	"testing"

	"repro/internal/engine"
)

// The sweeps must render byte-identically no matter which engine runs
// them and no matter how many workers shard their cells: the wheel is
// bit-identical to the step oracle per run, each cell is a pure
// function of its key, and the prewarmers install results into the
// same memo the serial loop reads.

func TestIFSweepWheelMatchesStep(t *testing.T) {
	step := mshrRunner()
	wheel := mshrRunner()
	wheel.Engine = engine.Wheel
	want := RenderIFSweep(IFSweep(step))
	got := RenderIFSweep(IFSweep(wheel))
	if got != want {
		t.Fatalf("ifsweep diverged between engines\nstep:\n%s\nwheel:\n%s", want, got)
	}
}

// TestSweepsParallelMatchSerial renders every sweep twice — serially
// on the step oracle, then with four workers on the wheel — and wants
// the same bytes: the worker count and the engine may change how long a
// table takes, never what it says.
func TestSweepsParallelMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		runner func() *Runner
		render func(*Runner) string
	}{
		{"dramsweep", smallRunner, func(r *Runner) string { return RenderDRAMSweep(DRAMSweep(r)) }},
		{"channelscaling", smallRunner, func(r *Runner) string { return RenderChannelScaling(DRAMChannelScaling(r)) }},
		{"mshrsweep", mshrRunner, func(r *Runner) string { return RenderMSHRSweep(MSHRSweep(r)) }},
		{"pfsweep", mshrRunner, func(r *Runner) string { return RenderPFSweep(PFSweep(r)) }},
		{"rpsweep", mshrRunner, func(r *Runner) string { return RenderRPSweep(RPSweep(r)) }},
		{"ifsweep", mshrRunner, func(r *Runner) string { return RenderIFSweep(IFSweep(r)) }},
		{"vasweep", mshrRunner, func(r *Runner) string { return RenderVASweep(VASweep(r)) }},
		{"latdist", latDistRunner, func(r *Runner) string { return RenderLatDist(LatDist(r)) }},
		{"cpisweep", cpiSweepRunner, func(r *Runner) string { return RenderCPISweep(CPISweep(r, "test-small")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par := tc.runner()
			par.Engine = engine.Wheel
			par.Workers = 4
			want, got := tc.render(tc.runner()), tc.render(par)
			if got != want {
				t.Fatalf("diverged under -j 4 wheel\nserial step:\n%s\nparallel wheel:\n%s", want, got)
			}
		})
	}
}
