package media

import "testing"

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds must differ")
	}
	if NewRand(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if NewRand(1).Intn(0) != 0 {
		t.Error("Intn(0) must be 0")
	}
}

func TestVideoSequenceTranslation(t *testing.T) {
	frames := VideoSequence(64, 48, 3, 2, 1, 42)
	if len(frames) != 3 {
		t.Fatal("frame count")
	}
	f0, f1 := frames[0], frames[1]
	// Content translates by (-dx, -dy) on screen: pixel (x,y) of frame 1
	// equals texture at (x+dx, y+dy), i.e. frame 0 shifted.
	match := 0
	for y := 8; y < 40; y++ {
		for x := 8; x < 56; x++ {
			if f1.Pix[y*f1.Stride+x] == f0.Pix[(y+1)*f0.Stride+x+2] {
				match++
			}
		}
	}
	total := 32 * 48
	if match != total {
		t.Errorf("translation mismatch: %d/%d pixels", match, total)
	}
}

func TestSpeechPitched(t *testing.T) {
	s := Speech(4000, 11)
	if len(s) != 4000 {
		t.Fatal("length")
	}
	// The signal must have nonzero energy and some large pulses.
	var energy int64
	peak := int16(0)
	for _, v := range s {
		energy += int64(v) * int64(v)
		if v > peak {
			peak = v
		}
	}
	if energy == 0 || peak < 1000 {
		t.Errorf("speech too quiet: peak %d", peak)
	}
	// Autocorrelation at some lag in 40..120 must beat nearby non-pitch lags
	// (i.e. the signal is genuinely periodic in the LTP search range).
	corr := func(lag int) int64 {
		var c int64
		for i := lag; i < 2000; i++ {
			c += int64(s[i]) * int64(s[i-lag])
		}
		return c
	}
	best, bestLag := int64(0), 0
	for lag := 40; lag <= 120; lag++ {
		if c := corr(lag); c > best {
			best, bestLag = c, lag
		}
	}
	if bestLag == 0 {
		t.Fatal("no positive correlation found in LTP range")
	}
	if best <= corr(33) {
		t.Errorf("pitch lag %d not clearly better than off-pitch lag", bestLag)
	}
}

func TestGray(t *testing.T) {
	g := Gray(32, 32, 5)
	var sum int
	for _, p := range g.Pix {
		sum += int(p)
	}
	mean := sum / len(g.Pix)
	if mean < 64 || mean > 192 {
		t.Errorf("gray mean %d implausible", mean)
	}
}
