package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// paperEvaluation runs everything momexp's default run computes short
// of the sweeps: every table and figure plus the headline.
func paperEvaluation(r *Runner) {
	Table1(r)
	for _, fig := range []func(*Runner) *Figure{Figure3, Figure6, Figure7, Figure9, Figure10, Figure11} {
		fig(r)
	}
	Table4(r)
	ComputeHeadline(r)
}

// The store generates a stream the first time anything asks for it and
// never again: the paper evaluation is 5 kernels × 3 variants but for
// jpegdecode's MOM+3D, which is its MOM stream; the tenant sweeps are
// two MOM+3D streams however many mixes, policies and tenants share
// them.
func TestTraceStoreGeneratesEachStreamOnce(t *testing.T) {
	r := smallRunner()
	paperEvaluation(r)
	streams, insts, static, bytes := r.TraceStats()
	if streams != 14 {
		t.Errorf("paper evaluation generated %d streams, want 14", streams)
	}
	var n, dict, spans, runs, addrs, tmpl int
	for _, s := range r.store.streams {
		n += s.tr.Len()
		dict += len(s.tr.Dict)
		spans += len(s.tr.Spans)
		runs += len(s.tr.Runs)
		addrs += len(s.tr.Addrs)
		tmpl += len(s.tr.Static)
	}
	var tr trace.Stream
	held := int64(dict)*int64(unsafe.Sizeof(tr.Dict[0])) + int64(spans)*int64(unsafe.Sizeof(tr.Spans[0])) +
		int64(runs)*int64(unsafe.Sizeof(tr.Runs[0])) + int64(addrs)*int64(unsafe.Sizeof(tr.Addrs[0])) +
		int64(tmpl)*int64(unsafe.Sizeof(tr.Static[0]))
	if insts != n || static != tmpl || bytes != held {
		t.Errorf("TraceStats = %d instructions over %d static, %d bytes; the store holds %d (%d dictionary words, "+
			"%d spans, %d runs, %d addresses) over %d, %d bytes", insts, static, bytes, n, dict, spans, runs, addrs, tmpl, held)
	}

	r = mshrRunner()
	IFSweep(r)
	VASweep(r)
	if streams, _, _, _ := r.TraceStats(); streams != 2 {
		t.Errorf("IFSweep + VASweep generated %d streams, want 2", streams)
	}
}

// A benchmark without 3D patterns answers MOM and MOM+3D with one
// stream; one with them keeps two.
func TestStreamWithout3DServesBothMOMVariants(t *testing.T) {
	r := smallRunner()
	for _, bench := range r.Benchmarks() {
		mom3D := r.traceFor(bench, kernels.MOM3D)
		mom := r.traceFor(bench, kernels.MOM)
		if has3D := r.benches[bench].Has3D; (mom == mom3D) == has3D {
			t.Errorf("%s (Has3D %v): MOM and MOM+3D share a stream: %v", bench, has3D, mom == mom3D)
		}
	}
	if streams, _, _, _ := r.TraceStats(); streams != 2*len(r.Benchmarks())-1 {
		t.Errorf("the store keys %d streams, want %d", streams, 2*len(r.Benchmarks())-1)
	}
}

// sweepTables renders every sweep that fans cells across the pool.
func sweepTables(r *Runner) string {
	return strings.Join([]string{
		RenderMSHRSweep(MSHRSweep(r)), RenderPFSweep(PFSweep(r)), RenderRPSweep(RPSweep(r)),
		RenderIFSweep(IFSweep(r)), RenderVASweep(VASweep(r)),
	}, "\n")
}

// The workers of a -j pool share the parent's store: four of them
// generate exactly the streams one does, once each, and the tables come
// out byte-identical. Run under -race by `make wheel`.
func TestTraceStoreParallelMatchesSerial(t *testing.T) {
	serial, par := mshrRunner(), mshrRunner()
	par.Workers = 4
	want, got := sweepTables(serial), sweepTables(par)
	if got != want {
		t.Fatalf("sweeps diverged under -j 4\nserial:\n%s\nparallel:\n%s", want, got)
	}
	ws, wi, _, _ := serial.TraceStats()
	gs, gi, _, _ := par.TraceStats()
	if gs != ws || gi != wi {
		t.Errorf("4 workers generated %d streams (%d instructions), 1 worker %d (%d)", gs, gi, ws, wi)
	}
}

// rawBytes views a slice's elements as bytes, padding included.
func rawBytes[T any](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// hashStreams fingerprints the bytes of every stored stream, all five
// tables.
func hashStreams(r *Runner) map[streamKey][sha256.Size]byte {
	sums := map[streamKey][sha256.Size]byte{}
	for k, s := range r.store.streams {
		h := sha256.New()
		h.Write(rawBytes(s.tr.Dict))
		h.Write(rawBytes(s.tr.Spans))
		h.Write(rawBytes(s.tr.Runs))
		h.Write(rawBytes(s.tr.Addrs))
		h.Write(rawBytes(s.tr.Static))
		sums[k] = [sha256.Size]byte(h.Sum(nil))
	}
	return sums
}

// Every consumer reads the stored stream itself, so none may write to
// it: an in-place edit would silently corrupt every later cell of the
// same stream. Drive the streams through each kind of consumer — both
// engines, lockstep tenants without translation (IFMixes[0]: four
// motionsearch tenants aliasing one stream, each adding its own window
// base) and with it — and require the stored bytes unchanged.
func TestSharedTracesAreReadOnly(t *testing.T) {
	r := mshrRunner()
	for _, bench := range r.Benchmarks() {
		for _, v := range []kernels.Variant{kernels.MMX, kernels.MOM, kernels.MOM3D} {
			r.traceFor(bench, v)
		}
	}
	before := hashStreams(r)

	for _, mode := range []engine.Mode{engine.Step, engine.Wheel} {
		c := r.child()
		c.Engine = mode
		for _, bench := range r.Benchmarks() {
			c.cell(SimKey{Bench: bench, Variant: kernels.MMX, Mem: core.MemMultiBanked, L2Lat: baseLat})
			c.cell(SimKey{Bench: bench, Variant: kernels.MOM, Mem: core.MemVectorCache, L2Lat: baseLat,
				DRAM: "sdram/line/frfcfs/mshr8/pf8d4"})
			c.cell(bestKey(bench, "sdram/bank/frfcfs/vacolor"))
		}
		for _, mix := range IFMixes {
			c.cell(bestKey(strings.Join(mix, "+"), fmt.Sprintf("sdram/line/frfcfs/tn%d/qos", len(mix))))
			c.cell(bestKey(strings.Join(mix, "+"), fmt.Sprintf("sdram/bank/frfcfs/tn%d/vacolor", len(mix))))
		}
	}

	after := hashStreams(r)
	if len(after) != len(before) {
		t.Fatalf("store went from %d to %d streams", len(before), len(after))
	}
	for k, sum := range before {
		if after[k] != sum {
			t.Errorf("%s/%s: a consumer wrote to the shared stream", k.bench, k.v)
		}
	}
}

// A panic inside a pool worker must surface on the goroutine that
// called the sweep, naming the cell, not kill the process.
func TestPrewarmPanicSurfacesOnCaller(t *testing.T) {
	good := SimKey{Bench: "gsmencode", Variant: mom3DVariant, Mem: mom3DVCKind, L2Lat: baseLat, DRAM: ifBaseSpec}
	bad := good
	bad.Bench = "nosuchbench"
	for name, tc := range map[string]struct {
		run  func(*Runner)
		want []string
	}{
		"cell": {
			func(r *Runner) { r.prewarm([]SimKey{good, bad}) },
			[]string{"nosuchbench", `unknown benchmark "nosuchbench"`},
		},
		"tenant cell": {
			func(r *Runner) {
				r.prewarm([]SimKey{
					bestKey("gsmencode+gsmencode", ifBaseSpec+"/tn2"),
					bestKey("gsmencode+gsmencode", ifBaseSpec+"/tn4"),
				})
			},
			[]string{"gsmencode+gsmencode", "tn4 for a 2-tenant mix"},
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := mshrRunner()
			r.Workers = 4
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("recovered %q, want it to contain %q", msg, w)
					}
				}
				if len(r.results) != 1 {
					t.Errorf("memo holds %d cells, want the one that ran before the failure", len(r.results))
				}
			}()
			tc.run(r)
			t.Error("prewarm returned; the worker's panic was swallowed")
		})
	}
}
