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
			in := isa.Inst{Seq: uint64(i), Op: isa.OpISlt, Kind: isa.KindScalar, Imm: tag}
			if i%3 == 2 {
				in.Op, in.Kind, in.Addr = isa.OpLoadS, isa.KindScalarMem, uint64(8*i)
			}
			s.Emit(in)
		}
	}
}

// checkStream holds a recorded stream to the recorder's contract: every
// table of exact size, program order with continuous Seq, every entry
// and every static instruction of this generation, and a folded Stats
// that counted each entry once. emit has no taken instruction, so its
// runs are cut at maxRun words: ceil(n/maxRun) of them, at most three
// distinct full ones (a run starts at each phase of the period of
// three) and a shorter last one.
func checkStream(t *testing.T, s *Stream, st *Stats, n int, tag int64) {
	t.Helper()
	if s.Len() != n {
		t.Fatalf("recorded %d instructions, want %d", s.Len(), n)
	}
	full, tail := n/maxRun, n%maxRun
	distinct := min(full, 3)
	if tail != 0 {
		distinct++
	}
	for _, tab := range []struct {
		name     string
		len, cap int
		want     int
	}{
		{"static", len(s.Static), cap(s.Static), min(n, 2)},
		{"dictionary", len(s.Dict), cap(s.Dict), min(full, 3)*maxRun + tail},
		{"span", len(s.Spans), cap(s.Spans), distinct + 1},
		{"run", len(s.Runs), cap(s.Runs), (n+maxRun-1)/maxRun + 1},
		{"address", len(s.Addrs), cap(s.Addrs), n / 3},
	} {
		if tab.len != tab.want || tab.cap != tab.want {
			t.Fatalf("%s table len %d cap %d, want both %d", tab.name, tab.len, tab.cap, tab.want)
		}
	}
	var gen Trace
	emit(n, tag)(&gen)
	for i, got := range s.All() {
		if got != gen.Insts[i] {
			t.Fatalf("inst %d of %d: %+v, want %+v", i, n, got, gen.Insts[i])
		}
	}
	if loads := uint64(n / 3); st.Total != uint64(n) || st.ByOp[isa.OpLoadS] != loads || st.MemBytes != loads*uint64(tag) {
		t.Fatalf("folded stats counted %d (%d loads, %d bytes), want %d (%d, %d)",
			st.Total, st.ByOp[isa.OpLoadS], st.MemBytes, n, loads, loads*uint64(tag))
	}
}

// chunksFor is the number of staging chunks n entries take.
func chunksFor(n int) int { return (n + recorderChunk - 1) / recorderChunk }

func TestRecorderSizes(t *testing.T) {
	for _, n := range []int{0, 1, maxRun - 1, maxRun, maxRun + 1, recorderChunk - 1, recorderChunk, recorderChunk + 1,
		3*recorderChunk + 17, 3 * recorderChunk, maxRun*recorderChunk + 1} {
		var r Recorder
		s, st := r.Record(emit(n, 7))
		checkStream(t, s, st, n, 7)
		if want := chunksFor((n + maxRun - 1) / maxRun); len(r.b.ids.chunks) != want {
			t.Errorf("%d instructions staged in %d run chunks, want %d", n, len(r.b.ids.chunks), want)
		}
		if want := chunksFor(n / 3); len(r.b.addrs.chunks) != want {
			t.Errorf("%d addresses staged in %d chunks, want %d", n/3, len(r.b.addrs.chunks), want)
		}
	}
}

// Generations through one recorder: each reuses the first's staging
// (same chunks, none added), an earlier stream does not change when the
// staging, the dictionary and the static table are overwritten, and
// no stream or statistics carry anything over — not even from a
// generation that panicked half way.
func TestRecorderReusesStagingWithoutCrossTalk(t *testing.T) {
	var r Recorder
	nA, nB := maxRun*recorderChunk+100, recorderChunk+5
	a, stA := r.Record(emit(nA, 1))
	runs, addrs := slices.Clone(r.b.ids.chunks), slices.Clone(r.b.addrs.chunks)

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
	if !slices.Equal(runs, r.b.ids.chunks) || !slices.Equal(addrs, r.b.addrs.chunks) {
		t.Errorf("later generations did not reuse the staging: %d+%d chunks before, %d+%d after",
			len(runs), len(addrs), len(r.b.ids.chunks), len(r.b.addrs.chunks))
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
