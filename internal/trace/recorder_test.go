package trace

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// emit returns a generator of n instructions whose Seq counts from 0
// and whose Imm carries tag, so streams of different generations are
// told apart. Every third instruction is a load at its own address, so
// the stream has two static instructions and a dynamic half worth
// checking.
func emit(n int, tag int64) func(Sink) {
	return func(s Sink) {
		for i := 0; i < n; i++ {
			in := isa.Inst{Seq: uint64(i), Op: isa.OpIAdd, Kind: isa.KindScalar, Imm: tag}
			if i%3 == 2 {
				in.Op, in.Kind, in.Addr = isa.OpLoad, isa.KindScalarMem, uint64(8*i)
			}
			s.Emit(in)
		}
	}
}

// checkStream holds a recorded stream to the recorder's contract: both
// tables of exact size, program order with continuous Seq, every entry
// and every static instruction of this generation, and a folded Stats
// that counted each entry once.
func checkStream(t *testing.T, s *Stream, st *Stats, n int, tag int64) {
	t.Helper()
	if len(s.Dyn) != n || cap(s.Dyn) != n {
		t.Fatalf("recorded len %d cap %d, want both %d", len(s.Dyn), cap(s.Dyn), n)
	}
	if want := min(n, 2); len(s.Static) != want || cap(s.Static) != want {
		t.Fatalf("static table len %d cap %d, want both %d", len(s.Static), cap(s.Static), want)
	}
	var gen Trace
	emit(n, tag)(&gen)
	for i := range gen.Insts {
		if got := s.At(i); got != gen.Insts[i] {
			t.Fatalf("inst %d of %d: %+v, want %+v", i, n, got, gen.Insts[i])
		}
	}
	if loads := uint64(n / 3); st.Total != uint64(n) || st.ByOp[isa.OpLoad] != loads || st.MemBytes != loads*uint64(tag) {
		t.Fatalf("folded stats counted %d (%d loads, %d bytes), want %d (%d, %d)",
			st.Total, st.ByOp[isa.OpLoad], st.MemBytes, n, loads, loads*uint64(tag))
	}
}

func TestRecorderSizes(t *testing.T) {
	for _, n := range []int{0, 1, recorderChunk - 1, recorderChunk, recorderChunk + 1, 3*recorderChunk + 17} {
		var r Recorder
		s, st := r.Record(emit(n, 7))
		checkStream(t, s, st, n, 7)
		if want := (n + recorderChunk - 1) / recorderChunk; len(r.chunks) != want {
			t.Errorf("%d instructions staged in %d chunks, want %d", n, len(r.chunks), want)
		}
	}
}

// Generations through one recorder: each reuses the first's staging
// (same chunks, none added), an earlier stream does not change when the
// staging and the interning table are overwritten, and no stream or
// statistics carry anything over — not even from a generation that
// panicked half way.
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

// A stream keeps no Seq, so the recorder must refuse one it could not
// reproduce.
func TestRecorderRejectsSeqGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Record accepted an instruction whose Seq is not its index")
		}
	}()
	var r Recorder
	r.Record(func(s Sink) {
		s.Emit(isa.Inst{Seq: 0})
		s.Emit(isa.Inst{Seq: 2})
	})
}
