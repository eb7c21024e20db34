package trace

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// emit returns a generator of n instructions whose Seq counts from 0
// and whose Imm carries tag, so streams of different generations are
// told apart.
func emit(n int, tag int64) func(Sink) {
	return func(s Sink) {
		for i := 0; i < n; i++ {
			s.Emit(isa.Inst{Seq: uint64(i), Op: isa.OpIAdd, Kind: isa.KindScalar, Imm: tag})
		}
	}
}

// checkStream holds a recorded stream to the recorder's contract: exact
// size, program order with continuous Seq, every entry of this
// generation, and a folded Stats that counted each entry once.
func checkStream(t *testing.T, insts []isa.Inst, st *Stats, n int, tag int64) {
	t.Helper()
	if len(insts) != n || cap(insts) != n {
		t.Fatalf("recorded len %d cap %d, want both %d", len(insts), cap(insts), n)
	}
	for i := range insts {
		if insts[i].Seq != uint64(i) || insts[i].Imm != tag {
			t.Fatalf("inst %d of %d: Seq %d Imm %d, want Seq %d Imm %d",
				i, n, insts[i].Seq, insts[i].Imm, i, tag)
		}
	}
	if st.Total != uint64(n) || st.ByOp[isa.OpIAdd] != uint64(n) {
		t.Fatalf("folded stats counted %d (%d iadd), want %d", st.Total, st.ByOp[isa.OpIAdd], n)
	}
}

func TestRecorderSizes(t *testing.T) {
	for _, n := range []int{0, 1, recorderChunk - 1, recorderChunk, recorderChunk + 1, 3*recorderChunk + 17} {
		var r Recorder
		insts, st := r.Record(emit(n, 7))
		checkStream(t, insts, st, n, 7)
		if want := (n + recorderChunk - 1) / recorderChunk; len(r.chunks) != want {
			t.Errorf("%d instructions staged in %d chunks, want %d", n, len(r.chunks), want)
		}
	}
}

// Generations through one recorder: each reuses the first's staging
// (same chunks, none added), an earlier stream does not change when the
// staging is overwritten, and no stream or statistics carry anything
// over — not even from a generation that panicked half way.
func TestRecorderReusesStagingWithoutCrossTalk(t *testing.T) {
	var r Recorder
	nA, nB := 2*recorderChunk+100, recorderChunk+5
	a, stA := r.Record(emit(nA, 1))
	staging := slices.Clone(r.chunks)

	func() {
		defer func() { recover() }()
		r.Record(func(s Sink) {
			emit(recorderChunk/2, 3)(s)
			panic("kernel bug")
		})
	}()
	b, stB := r.Record(emit(nB, 2))
	checkStream(t, a, stA, nA, 1)
	checkStream(t, b, stB, nB, 2)
	if !slices.Equal(staging, r.chunks) {
		t.Errorf("later generations did not reuse the staging: %d chunks before, %d after", len(staging), len(r.chunks))
	}

	empty, stE := r.Record(emit(0, 0))
	checkStream(t, empty, stE, 0, 0)
}
