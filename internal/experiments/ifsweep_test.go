package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestIFSweepShape(t *testing.T) {
	r := mshrRunner() // test-scale gsmencode + motionsearch
	rows := IFSweep(r)
	if len(rows) != len(IFMixes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(IFMixes))
	}
	for _, row := range rows {
		n := len(row.Mix)
		if len(row.Solo) != n || len(row.Base.Cycles) != n || len(row.QoS.Cycles) != n {
			t.Fatalf("%v: per-tenant columns missing", row.Mix)
		}
		if len(row.Base.Shards) != n || len(row.QoS.Shards) != n {
			t.Fatalf("%v: backend stat shards missing", row.Mix)
		}
		for i := 0; i < n; i++ {
			if row.Solo[i] <= 0 {
				t.Errorf("%v tenant %d: solo cycles %d", row.Mix, i, row.Solo[i])
			}
			// Sharing the part can never beat running alone on it: the
			// lockstep group adds contention, nothing else.
			if row.Base.Cycles[i] < row.Solo[i] || row.QoS.Cycles[i] < row.Solo[i] {
				t.Errorf("%v tenant %d: shared run faster than solo (%d/%d vs %d)",
					row.Mix, i, row.Base.Cycles[i], row.QoS.Cycles[i], row.Solo[i])
			}
			if row.Base.Shards[i].Reads == 0 || row.QoS.Shards[i].Reads == 0 {
				t.Errorf("%v tenant %d: a shard saw no reads", row.Mix, i)
			}
		}
		// QoS reorders the same traffic: both passes serve every request.
		if a, b := row.Base.DRAM.Accesses, row.QoS.DRAM.Accesses; a != b {
			t.Errorf("%v: accesses diverged between passes: %d vs %d", row.Mix, a, b)
		}
		if row.Base.DRAM.QoSDeferred != 0 {
			t.Errorf("%v: the no-QoS pass counted %d deferrals", row.Mix, row.Base.DRAM.QoSDeferred)
		}
		sl := slowdowns(row.Base.Cycles, row.Solo)
		if j := jain(sl); j <= 0 || j > 1.0000001 {
			t.Errorf("%v: Jain index %f out of (0,1]", row.Mix, j)
		}
		if m := slices.Max(sl); m < 1 {
			t.Errorf("%v: max slowdown %f below 1", row.Mix, m)
		}
	}
	out := RenderIFSweep(rows)
	for _, want := range []string{"Interference sweep", "max", "jain", "(frfcfs)", "(qos)", "4x motionsearch"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMixLabel(t *testing.T) {
	cases := []struct {
		mix  []string
		want string
	}{
		{[]string{"a"}, "a"},
		{[]string{"a", "a", "a"}, "3x a"},
		{[]string{"a", "a", "b"}, "2x a + b"},
		{[]string{"a", "b", "a"}, "a + b + a"},
	}
	for _, c := range cases {
		if got := mixLabel(c.mix); got != c.want {
			t.Errorf("mixLabel(%v) = %q, want %q", c.mix, got, c.want)
		}
	}
}
