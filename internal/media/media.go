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

// Picture is a synthetic picture read by byte offset, row-major with
// stride == W: texture translated by (ox, oy), so that a video's frame
// t is the picture at (t·dx, t·dy) and content moves by (-dx, -dy) per
// frame, plus the noise Noisy adds, if it did. Fill builds any span of it
// without building the rest, which is how a kernel's emulated memory
// holds only the input pages it touches. A Picture is a value: the
// method value p.Fill holds its own copy.
type Picture struct {
	W, H   int
	ox, oy int
	seed   uint64
	amp    int      // noise amplitude; 0 when there is none
	marks  []uint64 // the noise PRNG's state before every noiseMark-th pixel
}

// noiseMark is how many pixels apart a noisy picture keeps the noise
// PRNG's state: 4 KB of state for a 1920x1088 picture.
const noiseMark = 4096

// NewPicture is the w x h texture of seed translated by (ox, oy).
func NewPicture(w, h, ox, oy int, seed uint64) Picture {
	return Picture{W: w, H: h, ox: ox, oy: oy, seed: seed}
}

// Noisy is the picture with every pixel, in raster order, perturbed
// by a uniform value in [-amp, amp] drawn from a PRNG seeded with seed,
// clamped to the 8-bit range: nonzero inter-frame residuals even for
// perfectly translated content. It runs the PRNG over the whole
// picture once, keeping its state every noiseMark pixels.
func (p Picture) Noisy(amp int, seed uint64) Picture {
	p.amp = amp
	p.marks = make([]uint64, 0, (p.W*p.H+noiseMark-1)/noiseMark)
	r := NewRand(seed)
	for i := 0; i < p.W*p.H; i += noiseMark {
		p.marks = append(p.marks, r.state)
		for range min(noiseMark, p.W*p.H-i) {
			r.Uint64()
		}
	}
	return p
}

// Fill writes the picture's bytes from offset off on into dst, a row
// segment at a time.
func (p Picture) Fill(off uint64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	i := int(off)
	var r Rand
	if p.marks != nil {
		r.state = p.marks[i/noiseMark]
		for range i % noiseMark {
			r.Uint64()
		}
	}
	y, x := i/p.W, i%p.W
	for len(dst) > 0 {
		row := dst[:min(p.W-x, len(dst))]
		for j := range row {
			row[j] = texture(x+j+p.ox, y+p.oy, p.seed)
		}
		if p.marks != nil {
			for j, v := range row {
				row[j] = uint8(min(max(int(v)+r.Intn(2*p.amp+1)-p.amp, 0), 255))
			}
		}
		dst = dst[len(row):]
		y, x = y+1, 0
	}
}

// Frame builds the whole picture as a frame.
func (p Picture) Frame() *Frame {
	f := NewFrame(p.W, p.H)
	p.Fill(0, f.Pix)
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
