package media

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

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
	// Frame t of a video moving by (dx, dy) = (2, 1) is the picture at
	// (2t, t).
	f0 := NewPicture(64, 48, 0, 0, 42).Frame()
	f1 := NewPicture(64, 48, 2, 1, 42).Frame()
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

// The loops a Picture replaces, kept as its reference: whole frames of
// a translating texture, then noise drawn pixel by pixel in raster
// order.

func refVideoSequence(w, h, n, dx, dy int, seed uint64) []*Frame {
	frames := make([]*Frame, n)
	for t := 0; t < n; t++ {
		f := NewFrame(w, h)
		ox, oy := t*dx, t*dy
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Pix[y*f.Stride+x] = texture(x+ox, y+oy, seed)
			}
		}
		frames[t] = f
	}
	return frames
}

func refAddNoise(f *Frame, amp int, seed uint64) {
	r := NewRand(seed)
	for i := range f.Pix {
		v := int(f.Pix[i]) + r.Intn(2*amp+1) - amp
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		f.Pix[i] = uint8(v)
	}
}

func refGray(w, h int, seed uint64) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Pix[y*f.Stride+x] = texture(x, y, seed)
		}
	}
	return f
}

// A Picture's Fill is the reference frame's bytes at any offset and
// length: spans that start on, end on and cross a noise checkpoint,
// spans through the last, partial 4 KiB page of a frame whose size is
// no multiple of 4,096, single bytes, whole frames and random spans —
// for a still picture, a translated one and noisy ones, with the noise
// amplitudes and seeds the kernels use.
func TestPictureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, c := range []struct {
		name       string
		w, h       int
		dx, dy     int
		amp        int
		seed, nsed uint64
	}{
		{"still", 177, 61, 0, 0, 0, 0x1baba, 0},
		{"translated", 176, 80, 3, 0, 0, 0xC0FFEE, 0},
		{"noisy HD rows", 1920, 40, 5, 1, 4, 0x5EA4C, 0x5EA4C ^ 0x5eed},
		{"noisy, partial last page", 177, 61, 2, 0, 5, 0xDEC0DE, 0xDEC0DE ^ 0x5eed},
		{"noisy, amplitude 0", 100, 50, 1, 1, 0, 7, 9},
	} {
		want := refVideoSequence(c.w, c.h, 2, c.dx, c.dy, c.seed)[1]
		p := NewPicture(c.w, c.h, c.dx, c.dy, c.seed)
		if c.amp > 0 || c.nsed != 0 {
			refAddNoise(want, c.amp, c.nsed)
			p = p.Noisy(c.amp, c.nsed)
		}
		if c.dx == 0 && c.dy == 0 && !bytes.Equal(want.Pix, refGray(c.w, c.h, c.seed).Pix) {
			t.Fatalf("%s: the reference video's first frame is not the reference still image", c.name)
		}
		if got := p.Frame(); got.W != c.w || got.H != c.h || got.Stride != c.w || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%s: Frame differs from the reference", c.name)
		}
		n := c.w * c.h
		spans := [][2]int{{0, n}, {0, 1}, {n - 1, 1}, {n &^ 4095, n - n&^4095}, {(n &^ 4095) - 7, n - n&^4095 + 7}}
		for k := noiseMark; k < n; k += noiseMark {
			spans = append(spans, [2]int{k - 1, 2}, [2]int{k, min(3, n-k)}, [2]int{k - 100, min(4096, n-k+100)}, [2]int{k - c.w, 1})
		}
		for range 200 {
			off := rng.IntN(n)
			spans = append(spans, [2]int{off, 1 + rng.IntN(min(3*4096, n-off))})
		}
		for _, sp := range spans {
			off, l := sp[0], sp[1]
			got := make([]byte, l)
			p.Fill(uint64(off), got)
			if !bytes.Equal(got, want.Pix[off:off+l]) {
				t.Fatalf("%s: Fill(%d, %d bytes) differs from the reference", c.name, off, l)
			}
		}
	}
	if f := NewPicture(0, 0, 0, 0, 1).Noisy(3, 1).Frame(); len(f.Pix) != 0 {
		t.Fatalf("an empty noisy picture builds %d bytes", len(f.Pix))
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
	g := NewPicture(32, 32, 0, 0, 5).Frame()
	var sum int
	for _, p := range g.Pix {
		sum += int(p)
	}
	mean := sum / len(g.Pix)
	if mean < 64 || mean > 192 {
		t.Errorf("gray mean %d implausible", mean)
	}
}
