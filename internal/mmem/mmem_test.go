package mmem

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestZeroValueReads(t *testing.T) {
	m := New()
	m.Lazy(1<<41, 100, func(uint64, []byte) { t.Fatal("a read outside the region filled it") })
	if m.ReadU16(0) != 0 || m.ReadU64(1<<40) != 0 {
		t.Error("unwritten memory must read as zero")
	}
	buf := make([]byte, 64)
	m.Read(0xdeadbeef, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("bulk read of unwritten memory must be zero")
		}
	}
	if len(m.pages) != 0 {
		t.Errorf("reads made %d pages, want none", len(m.pages))
	}
}

// byteAt reads the one byte at addr.
func byteAt(m *Memory, addr uint64) byte {
	var b [1]byte
	m.Read(addr, b[:])
	return b[0]
}

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.Write(42, []byte{0xab})
	if byteAt(m, 42) != 0xab {
		t.Error("byte round trip failed")
	}
	if byteAt(m, 43) != 0 {
		t.Error("adjacent byte must stay zero")
	}
}

func TestWideRoundTrips(t *testing.T) {
	m := New()
	m.WriteU16(100, 0x1234)
	m.WriteU32(200, 0xdeadbeef)
	m.WriteU64(300, 0x0123456789abcdef)
	if m.ReadU16(100) != 0x1234 {
		t.Error("u16")
	}
	if m.ReadU64(200) != 0xdeadbeef {
		t.Error("u32")
	}
	if m.ReadU64(300) != 0x0123456789abcdef {
		t.Error("u64")
	}
	// Little-endian byte order.
	if byteAt(m, 100) != 0x34 || byteAt(m, 101) != 0x12 {
		t.Error("u16 must be little-endian")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.Write(addr, src)
	dst := make([]byte, 8)
	m.Read(addr, dst)
	if !bytes.Equal(src, dst) {
		t.Errorf("cross-page: got %v want %v", dst, src)
	}
	m.WriteU64(addr, 0x1122334455667788)
	if m.ReadU64(addr) != 0x1122334455667788 {
		t.Error("cross-page u64 round trip failed")
	}
}

func TestBulkRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr)
		m.Write(a, data)
		got := make([]byte, len(data))
		m.Read(a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var m Memory // zero value, no New
	m.WriteU32(16, 7)
	if m.ReadU64(16) != 7 {
		t.Error("zero-value Memory must be usable")
	}
}

// source is a region's content for tests: fill copies from buf, and
// fills counts the calls.
type source struct {
	buf   []byte
	fills int
}

func (s *source) fill(off uint64, dst []byte) {
	s.fills++
	copy(dst, s.buf[off:])
}

func randomBytes(rng *rand.Rand, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// Lazy must leave memory exactly as a Write of the whole region at the
// moment of the mapping does, whatever comes before and after: aligned
// and unaligned regions over one to many pages, regions that overlap
// or share a page, regions mapped onto pages already made, stores
// into regions before and after their pages are touched, and reads
// anywhere, each checked as it happens. Each check reads only around
// what the step touched, so most pages are first touched by a store or
// a read of the steps themselves.
func TestLazyMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	lazy, written := New(), New()
	check := func(what string, addr, n uint64) {
		t.Helper()
		want, got := make([]byte, n), make([]byte, n)
		written.Read(addr, want)
		lazy.Read(addr, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("after %s, %d bytes at %#x read back differently from Write", what, n, addr)
		}
	}
	const span = 40 * pageSize
	for step := range 400 {
		addr := rng.Uint64N(span)
		switch rng.IntN(4) {
		case 0: // map a region
			if rng.IntN(2) == 0 {
				addr &^= pageMask
			}
			n := 1 + rng.Uint64N(5*pageSize)
			src := &source{buf: randomBytes(rng, n)}
			lazy.Lazy(addr, n, src.fill)
			written.Write(addr, src.buf)
			what := fmt.Sprintf("step %d: Lazy(%#x, %d)", step, addr, n)
			check(what, addr-1, 2)
			check(what, addr+n-1, 2)
		case 1: // store
			b := randomBytes(rng, 1+rng.Uint64N(2*pageSize))
			lazy.Write(addr, b)
			written.Write(addr, b)
			check(fmt.Sprintf("step %d: Write(%#x, %d)", step, addr, len(b)), addr-1, uint64(len(b))+2)
		default: // read
			check(fmt.Sprintf("step %d", step), addr, 1+rng.Uint64N(pageSize))
		}
	}
	check("every step", 0, span+6*pageSize)
}

// A read of a region whose page nobody touched reads the source; a
// store then lands on it.
func TestLazyReadBeforeWrite(t *testing.T) {
	m := New()
	src := &source{buf: bytes.Repeat([]byte{7}, 3*pageSize)}
	m.Lazy(pageSize+100, 3*pageSize, src.fill)
	if got := byteAt(m, 2*pageSize+5); got != 7 {
		t.Fatalf("an untouched region byte reads %d, want the source's 7", got)
	}
	m.Write(2*pageSize+5, []byte{9})
	if got := byteAt(m, 2*pageSize+5); got != 9 {
		t.Fatalf("a stored region byte reads %d, want the store's 9", got)
	}
	if got := byteAt(m, 2*pageSize+6); got != 7 {
		t.Fatalf("the byte next to a store reads %d, want the source's 7", got)
	}
}

// A store to a region's page nobody has read fills the page first: the
// stored bytes read back, and the page's other bytes still read the
// source.
func TestLazyWriteBeforeRead(t *testing.T) {
	m := New()
	src := &source{buf: bytes.Repeat([]byte{7}, 2*pageSize)}
	m.Lazy(0, 2*pageSize, src.fill)
	m.WriteU32(pageSize+8, 0x01020304)
	got := make([]byte, pageSize)
	m.Read(pageSize, got)
	want := bytes.Repeat([]byte{7}, pageSize)
	copy(want[8:], []byte{4, 3, 2, 1})
	if !bytes.Equal(got, want) {
		t.Fatalf("a page stored to before any read holds %v..., want the store over the source", got[:16])
	}
}

// Two unaligned regions that share a page both fill it; the bytes of
// the page outside both read zero.
func TestLazyRegionsSharePage(t *testing.T) {
	m := New()
	a := &source{buf: bytes.Repeat([]byte{1}, 100)}
	b := &source{buf: bytes.Repeat([]byte{2}, pageSize)}
	m.Lazy(3*pageSize+10, 100, a.fill)
	m.Lazy(3*pageSize+200, pageSize, b.fill)
	got := make([]byte, pageSize)
	m.Read(3*pageSize, got)
	for i, v := range got {
		want := byte(0)
		switch {
		case i >= 10 && i < 110:
			want = 1
		case i >= 200:
			want = 2
		}
		if v != want {
			t.Fatalf("byte %d of the shared page reads %d, want %d", i, v, want)
		}
	}
	if a.fills != 1 || b.fills != 1 {
		t.Fatalf("the shared page took %d and %d fills, want one from each region", a.fills, b.fills)
	}
	if byteAt(m, 4*pageSize+199) != 2 || byteAt(m, 4*pageSize+200) != 0 {
		t.Fatal("the second region's next page reads wrong")
	}
}

// Touching one byte of a region makes exactly the one page that holds
// it, filled by one call; a read next to the region makes none.
func TestLazyTouchMakesOnePage(t *testing.T) {
	m := New()
	src := &source{buf: make([]byte, 10*pageSize)}
	m.Lazy(5*pageSize+1, 10*pageSize, src.fill)
	if len(m.pages) != 0 || src.fills != 0 {
		t.Fatalf("mapping made %d pages and %d fills, want none", len(m.pages), src.fills)
	}
	byteAt(m, 7*pageSize+3)
	if len(m.pages) != 1 || src.fills != 1 {
		t.Fatalf("reading one byte made %d pages and %d fills, want 1 and 1", len(m.pages), src.fills)
	}
	m.ReadU64(5*pageSize - 8)
	byteAt(m, 16*pageSize)
	if len(m.pages) != 1 {
		t.Fatalf("reads outside the region made pages: %d, want 1", len(m.pages))
	}
	m.Write(9*pageSize, []byte{1})
	if len(m.pages) != 2 || src.fills != 2 {
		t.Fatalf("storing one byte made %d pages and %d fills in all, want 2 and 2", len(m.pages), src.fills)
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(0x1000)
	p1 := a.Alloc(100, 64)
	p2 := a.Alloc(10, 64)
	p3 := a.Alloc(1, 1)
	if p1 != 0x1000 {
		t.Errorf("p1 = %#x", p1)
	}
	if p2%64 != 0 || p2 < p1+100 {
		t.Errorf("p2 = %#x not aligned past p1", p2)
	}
	if p3 < p2+10 {
		t.Errorf("p3 = %#x overlaps p2", p3)
	}
	// Alignment must be respected for any power of two.
	for _, al := range []int{1, 2, 4, 8, 16, 4096} {
		p := a.Alloc(3, al)
		if p%uint64(al) != 0 {
			t.Errorf("alloc align %d: %#x", al, p)
		}
	}
}
