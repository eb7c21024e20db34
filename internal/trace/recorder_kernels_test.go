package trace_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// The Recorder must be indistinguishable from the Trace + Stats pair it
// replaces: same stream, same statistics (the unexported dimension
// bookkeeping included), for every kernel and variant — through one
// recorder, so every generation but the first runs on reused staging.
func TestRecorderMatchesTraceAndStats(t *testing.T) {
	var rec trace.Recorder
	for _, bm := range experiments.GoldenSuite() {
		for _, v := range kernels.Variants {
			tr, st := &trace.Trace{}, trace.NewStats()
			bm.Run(v, trace.Multi{tr, st})
			insts, folded := rec.Record(func(s trace.Sink) { bm.Run(v, s) })
			if !slices.Equal(insts, tr.Insts) {
				t.Errorf("%s/%s: recorded stream differs from trace.Trace (%d vs %d instructions)",
					bm.Name, v, len(insts), len(tr.Insts))
			}
			if len(insts) != cap(insts) {
				t.Errorf("%s/%s: recorded len %d != cap %d", bm.Name, v, len(insts), cap(insts))
			}
			if !reflect.DeepEqual(folded, st) {
				t.Errorf("%s/%s: folded stats differ from a stand-alone trace.Stats\nfolded:\n%s\nstand-alone:\n%s",
					bm.Name, v, folded, st)
			}
		}
	}
}
