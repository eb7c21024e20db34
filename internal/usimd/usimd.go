// Package usimd implements the packed (sub-word SIMD) arithmetic that the
// MMX-like μSIMD instructions and the per-element MOM vector operations
// share. All operations work on 64-bit little-endian packed values:
// 8x8-bit bytes, 4x16-bit words, or 2x32-bit doublewords.
//
// The functions are pure and allocation-free; they are the single source
// of truth for packed semantics, used by the functional emulator and
// property-tested against scalar references.
package usimd

// Byte lane helpers.

// Byte extracts byte lane i (0 = least significant) of x.
func Byte(x uint64, i int) uint8 { return uint8(x >> (8 * uint(i))) }

// SetByte returns x with byte lane i replaced by v.
func SetByte(x uint64, i int, v uint8) uint64 {
	sh := 8 * uint(i)
	return x&^(0xff<<sh) | uint64(v)<<sh
}

// Word extracts 16-bit lane i (0..3) of x.
func Word(x uint64, i int) uint16 { return uint16(x >> (16 * uint(i))) }

// SetWord returns x with 16-bit lane i replaced by v.
func SetWord(x uint64, i int, v uint16) uint64 {
	sh := 16 * uint(i)
	return x&^(0xffff<<sh) | uint64(v)<<sh
}

// Dword extracts 32-bit lane i (0..1) of x.
func Dword(x uint64, i int) uint32 { return uint32(x >> (32 * uint(i))) }

// SetDword returns x with 32-bit lane i replaced by v.
func SetDword(x uint64, i int, v uint32) uint64 {
	sh := 32 * uint(i)
	return x&^(0xffffffff<<sh) | uint64(v)<<sh
}

// Wrapping lane adds/subtracts.

// PAddB adds byte lanes with wraparound.
func PAddB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		r = SetByte(r, i, Byte(a, i)+Byte(b, i))
	}
	return r
}

// PAddW adds 16-bit lanes with wraparound.
func PAddW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, Word(a, i)+Word(b, i))
	}
	return r
}

// PAddD adds 32-bit lanes with wraparound.
func PAddD(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetDword(r, i, Dword(a, i)+Dword(b, i))
	}
	return r
}

// PSubB subtracts byte lanes with wraparound.
func PSubB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		r = SetByte(r, i, Byte(a, i)-Byte(b, i))
	}
	return r
}

// PSubW subtracts 16-bit lanes with wraparound.
func PSubW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, Word(a, i)-Word(b, i))
	}
	return r
}

// PSubD subtracts 32-bit lanes with wraparound.
func PSubD(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetDword(r, i, Dword(a, i)-Dword(b, i))
	}
	return r
}

// Saturating arithmetic.

func satI16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func satU8(v int32) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

func satI8(v int32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

// PAddSW adds 16-bit lanes with signed saturation.
func PAddSW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		s := int32(int16(Word(a, i))) + int32(int16(Word(b, i)))
		r = SetWord(r, i, uint16(satI16(s)))
	}
	return r
}

// PSubSW subtracts 16-bit lanes with signed saturation.
func PSubSW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		s := int32(int16(Word(a, i))) - int32(int16(Word(b, i)))
		r = SetWord(r, i, uint16(satI16(s)))
	}
	return r
}

// PAddUSB adds byte lanes with unsigned saturation.
func PAddUSB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		s := int32(Byte(a, i)) + int32(Byte(b, i))
		r = SetByte(r, i, satU8(s))
	}
	return r
}

// PSubUSB subtracts byte lanes with unsigned saturation (floor at zero).
func PSubUSB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		s := int32(Byte(a, i)) - int32(Byte(b, i))
		r = SetByte(r, i, satU8(s))
	}
	return r
}

// Multiplies.

// PMullW multiplies 16-bit lanes, keeping the low 16 bits of each product.
func PMullW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		p := int32(int16(Word(a, i))) * int32(int16(Word(b, i)))
		r = SetWord(r, i, uint16(p))
	}
	return r
}

// PMulhW multiplies signed 16-bit lanes, keeping the high 16 bits.
func PMulhW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		p := int32(int16(Word(a, i))) * int32(int16(Word(b, i)))
		r = SetWord(r, i, uint16(p>>16))
	}
	return r
}

// PMAddWD multiplies signed 16-bit lanes and adds adjacent pairs into two
// signed 32-bit results.
func PMAddWD(a, b uint64) uint64 {
	lo := int32(int16(Word(a, 0)))*int32(int16(Word(b, 0))) +
		int32(int16(Word(a, 1)))*int32(int16(Word(b, 1)))
	hi := int32(int16(Word(a, 2)))*int32(int16(Word(b, 2))) +
		int32(int16(Word(a, 3)))*int32(int16(Word(b, 3)))
	return uint64(uint32(lo)) | uint64(uint32(hi))<<32
}

// Byte min/max/average.

// PAvgB averages unsigned byte lanes with rounding: (a+b+1)>>1.
func PAvgB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		v := (uint16(Byte(a, i)) + uint16(Byte(b, i)) + 1) >> 1
		r = SetByte(r, i, uint8(v))
	}
	return r
}

// PMinUB takes the unsigned minimum of byte lanes.
func PMinUB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		x, y := Byte(a, i), Byte(b, i)
		if y < x {
			x = y
		}
		r = SetByte(r, i, x)
	}
	return r
}

// PMaxUB takes the unsigned maximum of byte lanes.
func PMaxUB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		x, y := Byte(a, i), Byte(b, i)
		if y > x {
			x = y
		}
		r = SetByte(r, i, x)
	}
	return r
}

// PSadBW computes the sum of absolute differences of the 8 unsigned byte
// lanes, returned as a small scalar in the low bits.
func PSadBW(a, b uint64) uint64 {
	var sum uint64
	for i := 0; i < 8; i++ {
		x, y := int32(Byte(a, i)), int32(Byte(b, i))
		d := x - y
		if d < 0 {
			d = -d
		}
		sum += uint64(d)
	}
	return sum
}

// Logicals.

// PAnd is bitwise AND.
func PAnd(a, b uint64) uint64 { return a & b }

// POr is bitwise OR.
func POr(a, b uint64) uint64 { return a | b }

// PXor is bitwise XOR.
func PXor(a, b uint64) uint64 { return a ^ b }

// PAndN is MMX pandn: NOT(a) AND b.
func PAndN(a, b uint64) uint64 { return ^a & b }

// Shifts. Counts larger than the lane width zero the lane (or replicate
// the sign bit for arithmetic right shifts), matching MMX semantics.

// PSllW shifts 16-bit lanes left.
func PSllW(a uint64, n int) uint64 {
	if n >= 16 || n < 0 {
		return 0
	}
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, Word(a, i)<<uint(n))
	}
	return r
}

// PSrlW shifts 16-bit lanes right logically.
func PSrlW(a uint64, n int) uint64 {
	if n >= 16 || n < 0 {
		return 0
	}
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, Word(a, i)>>uint(n))
	}
	return r
}

// PSraW shifts 16-bit lanes right arithmetically.
func PSraW(a uint64, n int) uint64 {
	if n < 0 {
		n = 0
	}
	if n > 15 {
		n = 15
	}
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetWord(r, i, uint16(int16(Word(a, i))>>uint(n)))
	}
	return r
}

// PSllD shifts 32-bit lanes left.
func PSllD(a uint64, n int) uint64 {
	if n >= 32 || n < 0 {
		return 0
	}
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetDword(r, i, Dword(a, i)<<uint(n))
	}
	return r
}

// PSrlD shifts 32-bit lanes right logically.
func PSrlD(a uint64, n int) uint64 {
	if n >= 32 || n < 0 {
		return 0
	}
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetDword(r, i, Dword(a, i)>>uint(n))
	}
	return r
}

// PSraD shifts 32-bit lanes right arithmetically.
func PSraD(a uint64, n int) uint64 {
	if n < 0 {
		n = 0
	}
	if n > 31 {
		n = 31
	}
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetDword(r, i, uint32(int32(Dword(a, i))>>uint(n)))
	}
	return r
}

// PSllQ shifts the whole 64-bit register left.
func PSllQ(a uint64, n int) uint64 {
	if n >= 64 || n < 0 {
		return 0
	}
	return a << uint(n)
}

// PSrlQ shifts the whole 64-bit register right logically.
func PSrlQ(a uint64, n int) uint64 {
	if n >= 64 || n < 0 {
		return 0
	}
	return a >> uint(n)
}

// Packs and unpacks.

// PackUSWB packs the four signed words of a (low result bytes) and b (high
// result bytes) into eight unsigned saturated bytes.
func PackUSWB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetByte(r, i, satU8(int32(int16(Word(a, i)))))
		r = SetByte(r, i+4, satU8(int32(int16(Word(b, i)))))
	}
	return r
}

// PackSSWB packs the four signed words of a and b into eight signed
// saturated bytes.
func PackSSWB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetByte(r, i, uint8(satI8(int32(int16(Word(a, i))))))
		r = SetByte(r, i+4, uint8(satI8(int32(int16(Word(b, i))))))
	}
	return r
}

// PackSSDW packs the two signed dwords of a (low result words) and b (high
// result words) into four signed saturated 16-bit words.
func PackSSDW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetWord(r, i, uint16(satI16(int32(Dword(a, i)))))
		r = SetWord(r, i+2, uint16(satI16(int32(Dword(b, i)))))
	}
	return r
}

// PUnpckLDQ interleaves the low dwords of a and b: result = a0 b0.
func PUnpckLDQ(a, b uint64) uint64 {
	return uint64(Dword(a, 0)) | uint64(Dword(b, 0))<<32
}

// PUnpckHDQ interleaves the high dwords of a and b: result = a1 b1.
func PUnpckHDQ(a, b uint64) uint64 {
	return uint64(Dword(a, 1)) | uint64(Dword(b, 1))<<32
}

// PUnpckLBW interleaves the low four bytes of a and b:
// result bytes = a0 b0 a1 b1 a2 b2 a3 b3.
func PUnpckLBW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetByte(r, 2*i, Byte(a, i))
		r = SetByte(r, 2*i+1, Byte(b, i))
	}
	return r
}

// PUnpckHBW interleaves the high four bytes of a and b.
func PUnpckHBW(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r = SetByte(r, 2*i, Byte(a, i+4))
		r = SetByte(r, 2*i+1, Byte(b, i+4))
	}
	return r
}

// PUnpckLWD interleaves the low two words of a and b:
// result words = a0 b0 a1 b1.
func PUnpckLWD(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetWord(r, 2*i, Word(a, i))
		r = SetWord(r, 2*i+1, Word(b, i))
	}
	return r
}

// PUnpckHWD interleaves the high two words of a and b.
func PUnpckHWD(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r = SetWord(r, 2*i, Word(a, i+2))
		r = SetWord(r, 2*i+1, Word(b, i+2))
	}
	return r
}

// PShufW shuffles the four 16-bit lanes of a by the 8-bit control imm:
// result word i = a word (imm >> 2i) & 3.
func PShufW(a uint64, imm int) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		sel := (imm >> (2 * uint(i))) & 3
		r = SetWord(r, i, Word(a, sel))
	}
	return r
}

// SplatW broadcasts the low 16 bits of v to all four word lanes.
func SplatW(v uint64) uint64 {
	w := v & 0xffff
	return w | w<<16 | w<<32 | w<<48
}
