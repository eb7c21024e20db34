// Package media generates the deterministic synthetic inputs that stand in
// for the Mediabench data files (video frames, photographic images, speech
// audio). The generators are seeded and reproducible; their statistics are
// chosen so the kernels do representative work: video frames contain
// translating texture (so motion search finds real displacements), images
// have smooth low-frequency content plus detail (so DCT coefficients look
// photographic), and audio is voiced-speech-like (pitched, so long-term
// prediction finds real lags).
package media

// Rand is a small deterministic xorshift64* PRNG, independent of the
// standard library so traces are stable across Go releases.
type Rand struct {
	state uint64
}

// NewRand returns a PRNG seeded with seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudorandom value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudorandom int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Frame is one grayscale video frame with an explicit row stride, laid out
// exactly as the MPEG reference code lays out luminance planes.
type Frame struct {
	W, H   int
	Stride int
	Pix    []uint8
}

// NewFrame allocates a frame with stride == width.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Stride: w, Pix: make([]uint8, w*h)}
}

// texture is a smooth deterministic pattern: a sum of integer "plasma"
// harmonics plus hashed fine-grain noise, all in integer arithmetic.
func texture(x, y int, seed uint64) uint8 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ seed
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	// Low-frequency component from coarse coordinates.
	cx, cy := x>>3, y>>3
	l := uint64(cx*cx+3*cy*cx+2*cy*cy) ^ seed
	l ^= l >> 13
	return uint8(128 + int(int8(uint8(l)))/2 + int(int8(uint8(h)))/4)
}

// VideoSequence produces n frames of w x h video where the content
// translates by (dx, dy) pixels per frame over a static background, so
// full-search motion estimation has true displacements to find.
func VideoSequence(w, h, n, dx, dy int, seed uint64) []*Frame {
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

// AddNoise perturbs every pixel of f by a uniform value in [-amp, amp],
// clamped to the 8-bit range. Used to make inter-frame residuals nonzero
// even for perfectly translated content.
func AddNoise(f *Frame, amp int, seed uint64) {
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

// Gray returns a single-channel image (for grayscale JPEG paths).
func Gray(w, h int, seed uint64) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Pix[y*f.Stride+x] = texture(x, y, seed)
		}
	}
	return f
}

// Speech produces n 16-bit PCM samples of voiced-speech-like audio: a
// pitched pulse train through a slowly varying envelope plus noise. The
// pitch period is chosen inside GSM's long-term-prediction lag range
// (40..120 samples) so LTP search finds genuine correlations.
func Speech(n int, seed uint64) []int16 {
	r := NewRand(seed)
	out := make([]int16, n)
	period := 55 + r.Intn(30) // pitch period in samples
	var excite int32
	for i := 0; i < n; i++ {
		if i%period == 0 {
			excite = 6000 + int32(r.Intn(3000))
		}
		// Decaying pulse + envelope modulation + noise.
		excite = excite * 7 / 8
		env := int32(2048 + 1024*((i/160)%3))
		noise := int32(r.Intn(513)) - 256
		v := excite + noise + (env*int32(i%period))/int32(period)/4
		if v > 32767 {
			v = 32767
		}
		if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
	return out
}
