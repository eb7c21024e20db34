package usimd

import (
	"testing"
	"testing/quick"
)

// Scalar references used by the property tests.

func refBytes(a, b uint64, f func(x, y uint8) uint8) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		r = SetByte(r, i, f(Byte(a, i), Byte(b, i)))
	}
	return r
}

func refWords(a, b uint64, f func(x, y uint16) uint16) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, f(Word(a, i), Word(b, i)))
	}
	return r
}

func check2(t *testing.T, name string, got, want func(a, b uint64) uint64) {
	t.Helper()
	f := func(a, b uint64) bool { return got(a, b) == want(a, b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// packBytes packs 8 bytes (b[0] least significant) into a uint64.
func packBytes(b [8]uint8) uint64 {
	var x uint64
	for i, v := range b {
		x |= uint64(v) << (8 * uint(i))
	}
	return x
}

// unpackBytes splits x into its 8 byte lanes.
func unpackBytes(x uint64) [8]uint8 {
	var b [8]uint8
	for i := range b {
		b[i] = Byte(x, i)
	}
	return b
}

// packWords packs 4 words (w[0] least significant) into a uint64.
func packWords(w [4]uint16) uint64 {
	var x uint64
	for i, v := range w {
		x |= uint64(v) << (16 * uint(i))
	}
	return x
}

// unpackWords splits x into its 4 word lanes.
func unpackWords(x uint64) [4]uint16 {
	var w [4]uint16
	for i := range w {
		w[i] = Word(x, i)
	}
	return w
}

func TestLaneAccessors(t *testing.T) {
	x := uint64(0x0807060504030201)
	for i := 0; i < 8; i++ {
		if Byte(x, i) != uint8(i+1) {
			t.Fatalf("Byte(%d) = %#x", i, Byte(x, i))
		}
	}
	if Word(x, 0) != 0x0201 || Word(x, 3) != 0x0807 {
		t.Fatal("Word lanes wrong")
	}
	if Dword(x, 0) != 0x04030201 || Dword(x, 1) != 0x08070605 {
		t.Fatal("Dword lanes wrong")
	}
	if SetByte(0, 7, 0xff) != 0xff00000000000000 {
		t.Fatal("SetByte wrong")
	}
	if SetWord(0, 2, 0xabcd) != 0x0000abcd00000000 {
		t.Fatal("SetWord wrong")
	}
	if SetDword(0, 1, 0xdeadbeef) != 0xdeadbeef00000000 {
		t.Fatal("SetDword wrong")
	}
}

func TestWrappingAddsSubs(t *testing.T) {
	check2(t, "paddw", PAddW, func(a, b uint64) uint64 {
		return refWords(a, b, func(x, y uint16) uint16 { return x + y })
	})
	check2(t, "psubw", PSubW, func(a, b uint64) uint64 {
		return refWords(a, b, func(x, y uint16) uint16 { return x - y })
	})
	check2(t, "paddd", PAddD, func(a, b uint64) uint64 {
		lo := Dword(a, 0) + Dword(b, 0)
		hi := Dword(a, 1) + Dword(b, 1)
		return uint64(lo) | uint64(hi)<<32
	})
}

func TestMultiplies(t *testing.T) {
	check2(t, "pmullw", PMullW, func(a, b uint64) uint64 {
		return refWords(a, b, func(x, y uint16) uint16 {
			return uint16(int32(int16(x)) * int32(int16(y)))
		})
	})
	check2(t, "pmulhw", PMulhW, func(a, b uint64) uint64 {
		return refWords(a, b, func(x, y uint16) uint16 {
			return uint16((int32(int16(x)) * int32(int16(y))) >> 16)
		})
	})
	check2(t, "pmaddwd", PMAddWD, func(a, b uint64) uint64 {
		lo := int32(int16(Word(a, 0)))*int32(int16(Word(b, 0))) + int32(int16(Word(a, 1)))*int32(int16(Word(b, 1)))
		hi := int32(int16(Word(a, 2)))*int32(int16(Word(b, 2))) + int32(int16(Word(a, 3)))*int32(int16(Word(b, 3)))
		return uint64(uint32(lo)) | uint64(uint32(hi))<<32
	})
}

func TestByteOps(t *testing.T) {
	check2(t, "pavgb", PAvgB, func(a, b uint64) uint64 {
		return refBytes(a, b, func(x, y uint8) uint8 {
			return uint8((uint16(x) + uint16(y) + 1) >> 1)
		})
	})
}

func TestPSadBW(t *testing.T) {
	check2(t, "psadbw", PSadBW, func(a, b uint64) uint64 {
		var s uint64
		for i := 0; i < 8; i++ {
			x, y := int(Byte(a, i)), int(Byte(b, i))
			if x > y {
				s += uint64(x - y)
			} else {
				s += uint64(y - x)
			}
		}
		return s
	})
	// Max possible SAD is 8*255.
	if got := PSadBW(0, ^uint64(0)); got != 8*255 {
		t.Errorf("max SAD = %d, want %d", got, 8*255)
	}
	if PSadBW(0x1234567890abcdef, 0x1234567890abcdef) != 0 {
		t.Error("SAD of identical values must be 0")
	}
}

func TestLogicals(t *testing.T) {
	check2(t, "pxor", PXor, func(a, b uint64) uint64 { return a ^ b })
	if PXor(0xffff, 0xf0f0) != 0x0f0f {
		t.Error("pxor wrong")
	}
}

func TestShifts(t *testing.T) {
	a := packWords([4]uint16{0x8001, 0x4002, 0x2003, 0x1004})
	if got := unpackWords(PSraW(a, 4)); got != [4]uint16{0xf800, 0x0400, 0x0200, 0x0100} {
		t.Errorf("psraw: %x", got)
	}
	// Out-of-range counts.
	if got := unpackWords(PSraW(a, 100)); got != [4]uint16{0xffff, 0, 0, 0} {
		t.Errorf("psraw saturating count: %x", got)
	}
	if PSrlQ(1<<63, 63) != 1 || PSrlQ(1, 64) != 0 || PSrlQ(1, -1) != 0 {
		t.Error("quad shifts wrong")
	}
	d := uint64(0x80000000_00000001)
	if PSraD(d, 31) != 0xffffffff_00000000 {
		t.Errorf("psrad: %x", PSraD(d, 31))
	}
}

func TestPacks(t *testing.T) {
	a := packWords([4]uint16{0x0012, 0xffff /* -1 */, 0x0100 /* 256 */, 0x8000 /* min */})
	b := packWords([4]uint16{0x007f, 0x0080, 0x7fff, 0xff80 /* -128 */})
	gotU := unpackBytes(PackUSWB(a, b))
	wantU := [8]uint8{0x12, 0, 0xff, 0, 0x7f, 0x80, 0xff, 0}
	if gotU != wantU {
		t.Errorf("packuswb: got %x want %x", gotU, wantU)
	}
}

func TestUnpacks(t *testing.T) {
	a := packBytes([8]uint8{0, 1, 2, 3, 4, 5, 6, 7})
	b := packBytes([8]uint8{10, 11, 12, 13, 14, 15, 16, 17})
	if got := unpackBytes(PUnpckLBW(a, b)); got != [8]uint8{0, 10, 1, 11, 2, 12, 3, 13} {
		t.Errorf("punpcklbw: %v", got)
	}
	if got := unpackBytes(PUnpckHBW(a, b)); got != [8]uint8{4, 14, 5, 15, 6, 16, 7, 17} {
		t.Errorf("punpckhbw: %v", got)
	}
	wa := packWords([4]uint16{100, 101, 102, 103})
	wb := packWords([4]uint16{200, 201, 202, 203})
	if got := unpackWords(PUnpckLWD(wa, wb)); got != [4]uint16{100, 200, 101, 201} {
		t.Errorf("punpcklwd: %v", got)
	}
	if got := unpackWords(PUnpckHWD(wa, wb)); got != [4]uint16{102, 202, 103, 203} {
		t.Errorf("punpckhwd: %v", got)
	}
}

func TestPShufW(t *testing.T) {
	a := packWords([4]uint16{10, 11, 12, 13})
	// control 0b00_01_10_11 = reverse
	if got := unpackWords(PShufW(a, 0x1b)); got != [4]uint16{13, 12, 11, 10} {
		t.Errorf("pshufw reverse: %v", got)
	}
	// broadcast lane 2: control 0b10_10_10_10 = 0xaa
	if got := unpackWords(PShufW(a, 0xaa)); got != [4]uint16{12, 12, 12, 12} {
		t.Errorf("pshufw broadcast: %v", got)
	}
}

func TestSplatW(t *testing.T) {
	if SplatW(0x1234) != 0x1234123412341234 {
		t.Errorf("SplatW: %x", SplatW(0x1234))
	}
	if SplatW(0xffff1234) != 0x1234123412341234 {
		t.Error("SplatW must only use low 16 bits")
	}
}

// Unpack(L/H) used together must be a permutation of input bytes.
func TestUnpackIsPermutation(t *testing.T) {
	f := func(a, b uint64) bool {
		count := map[uint8]int{}
		for i := 0; i < 8; i++ {
			count[Byte(a, i)]++
			count[Byte(b, i)]++
		}
		lo, hi := PUnpckLBW(a, b), PUnpckHBW(a, b)
		for i := 0; i < 8; i++ {
			count[Byte(lo, i)]--
			count[Byte(hi, i)]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackSSDW(t *testing.T) {
	a := uint64(uint32(40000)) | uint64(uint32(0xffffffff))<<32 // 40000, -1
	b := uint64(uint32(0x80000000)) | uint64(uint32(7))<<32     // min32, 7
	got := unpackWords(PackSSDW(a, b))
	want := [4]uint16{0x7fff, 0xffff, 0x8000, 7}
	if got != want {
		t.Errorf("packssdw: got %x want %x", got, want)
	}
}

func TestUnpackDQ(t *testing.T) {
	a := uint64(0x1111111122222222)
	b := uint64(0x3333333344444444)
	if PUnpckLDQ(a, b) != 0x4444444422222222 {
		t.Errorf("punpckldq: %x", PUnpckLDQ(a, b))
	}
	if PUnpckHDQ(a, b) != 0x3333333311111111 {
		t.Errorf("punpckhdq: %x", PUnpckHDQ(a, b))
	}
}
