package engine

import "testing"

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"step", Step, false},
		{"wheel", Wheel, false},
		{"", Step, false},
		{"turbo", Step, true},
		{"Wheel", Step, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMode(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if Step.String() != "step" || Wheel.String() != "wheel" {
		t.Errorf("Mode.String: step=%q wheel=%q", Step.String(), Wheel.String())
	}
}
