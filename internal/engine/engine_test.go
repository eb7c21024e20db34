package engine

import "testing"

// TestModeString: the names the momsim engine: line and the momexp
// host: line print.
func TestModeString(t *testing.T) {
	if Step.String() != "step" || Wheel.String() != "wheel" {
		t.Errorf("Mode.String: step=%q wheel=%q", Step.String(), Wheel.String())
	}
}
