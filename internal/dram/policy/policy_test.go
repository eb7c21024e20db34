package policy

import (
	"reflect"
	"testing"
)

// TestParseAndString pins the rp<name>[:<n>] grammar and its canonical
// rendering.
func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		spec Spec
		out  string
	}{
		{"open", true, Spec{Kind: Open}, "open"},
		{"OPEN", true, Spec{Kind: Open}, "open"},
		{"close", true, Spec{Kind: Close}, "close"},
		{"history", true, Spec{Kind: History}, "history"},
		{"timer", true, Spec{Kind: Timer, Idle: DefaultTimerIdle}, "timer:200"},
		{"timer:64", true, Spec{Kind: Timer, Idle: 64}, "timer:64"},
		{"timer:0", false, Spec{}, ""},
		{"timer:-7", false, Spec{}, ""},
		{"timer:x", false, Spec{}, ""},
		{"open:5", false, Spec{}, ""}, // only the timer takes a parameter
		{"history:2", false, Spec{}, ""},
		{"lru", false, Spec{}, ""},
		{"", false, Spec{}, ""},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q): accepted=%v, want %v (err %v)", c.in, err == nil, c.ok, err)
			continue
		}
		if !c.ok {
			continue
		}
		if got != c.spec {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.spec)
		}
		if got.String() != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got.String(), c.out)
		}
		// The canonical form parses back to the same spec.
		if again, err := Parse(got.String()); err != nil || again != got {
			t.Errorf("round trip of %q via %q: %+v (err %v)", c.in, got.String(), again, err)
		}
	}
}

// seq drives one policy over a per-bank sequence of same-row(true) /
// different-row(false) observations and returns the CloseAfter
// decision after each, plus the flips observed.
func seq(t *testing.T, p RowPolicy, bank int, obs []bool) (decisions []int64, flips int) {
	t.Helper()
	for _, same := range obs {
		if p.Train(bank, same) {
			flips++
		}
		decisions = append(decisions, p.CloseAfter(bank))
	}
	return decisions, flips
}

// TestOpenNeverCloses: the static open policy keeps every row open
// whatever the training says — it is the controller's historical
// behaviour and the bit-identical default.
func TestOpenNeverCloses(t *testing.T) {
	p := Spec{Kind: Open}.New(4)
	dec, flips := seq(t, p, 0, []bool{true, false, false, false, true})
	for i, d := range dec {
		if d != KeepOpen {
			t.Fatalf("open policy decision %d = %d, want KeepOpen", i, d)
		}
	}
	if flips != 0 {
		t.Fatalf("open policy flipped %d times", flips)
	}
}

// TestCloseAlwaysCloses: static close auto-precharges after every
// access, training notwithstanding.
func TestCloseAlwaysCloses(t *testing.T) {
	p := Spec{Kind: Close}.New(4)
	dec, flips := seq(t, p, 1, []bool{true, true, true, false})
	for i, d := range dec {
		if d != 0 {
			t.Fatalf("close policy decision %d = %d, want 0", i, d)
		}
	}
	if flips != 0 {
		t.Fatalf("close policy flipped %d times", flips)
	}
}

// TestTimerReturnsIdleGap: the timer policy always answers its
// configured gap.
func TestTimerReturnsIdleGap(t *testing.T) {
	p := Spec{Kind: Timer, Idle: 123}.New(4)
	if d := p.CloseAfter(2); d != 123 {
		t.Fatalf("timer decision = %d, want 123", d)
	}
	if p.Train(2, false) {
		t.Fatal("timer policy must not flip")
	}
	if d := p.CloseAfter(2); d != 123 {
		t.Fatalf("timer decision after training = %d, want 123", d)
	}
}

// TestHistorySaturatingCounter walks the 2-bit predictor through a
// synthetic hit/conflict sequence: it starts weakly live (open-page
// default), two conflicts drive it dead, hits bring it back, and the
// counter saturates at both ends.
func TestHistorySaturatingCounter(t *testing.T) {
	p := Spec{Kind: History}.New(2)
	// Untrained: weakly live.
	if d := p.CloseAfter(0); d != KeepOpen {
		t.Fatalf("untrained decision = %d, want KeepOpen", d)
	}
	// conflict, conflict → dead (one flip at the threshold crossing);
	// conflict again → saturated dead, no further flip.
	dec, flips := seq(t, p, 0, []bool{false, false, false})
	if dec[0] != 0 || dec[1] != 0 || dec[2] != 0 {
		t.Fatalf("conflict run decisions = %v, want all 0 (init is weakly live: one conflict kills it)", dec)
	}
	if flips != 1 {
		t.Fatalf("conflict run flips = %d, want 1", flips)
	}
	// hit, hit → live again (one flip); two more hits saturate.
	dec, flips = seq(t, p, 0, []bool{true, true, true, true})
	if dec[0] != 0 {
		t.Fatalf("first hit already reopened the bank: %v", dec)
	}
	if dec[1] != KeepOpen || dec[2] != KeepOpen || dec[3] != KeepOpen {
		t.Fatalf("hit run decisions = %v, want live from the second hit", dec)
	}
	if flips != 1 {
		t.Fatalf("hit run flips = %d, want 1", flips)
	}
	// Saturated live survives a single conflict (hysteresis).
	if p.Train(0, false) {
		t.Fatal("single conflict must not flip a saturated live counter")
	}
	if d := p.CloseAfter(0); d != KeepOpen {
		t.Fatalf("decision after one conflict = %d, want KeepOpen", d)
	}
}

// TestHistoryPerBankIsolation: training one bank never moves another's
// counter.
func TestHistoryPerBankIsolation(t *testing.T) {
	p := Spec{Kind: History}.New(2)
	seq(t, p, 0, []bool{false, false, false}) // bank 0 goes dead
	if d := p.CloseAfter(1); d != KeepOpen {
		t.Fatalf("bank 1 decision = %d, want KeepOpen (untouched)", d)
	}
}

// TestSpecNew: every kind constructs its own policy.
func TestSpecNew(t *testing.T) {
	for _, c := range []struct {
		s    Spec
		want RowPolicy
	}{
		{Spec{Kind: Open}, openPolicy{}},
		{Spec{Kind: Close}, closePolicy{}},
		{Spec{Kind: Timer, Idle: 10}, timerPolicy{idle: 10}},
		{Spec{Kind: History}, &historyPolicy{}},
	} {
		if p := c.s.New(8); reflect.TypeOf(p) != reflect.TypeOf(c.want) {
			t.Errorf("%+v: New builds %T, want %T", c.s, p, c.want)
		}
	}
}
