package mmem

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestZeroValueReads(t *testing.T) {
	m := New()
	if m.ReadU8(0) != 0 || m.ReadU64(1<<40) != 0 {
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

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.WriteU8(42, 0xab)
	if m.ReadU8(42) != 0xab {
		t.Error("byte round trip failed")
	}
	if m.ReadU8(43) != 0 {
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
	if m.ReadU32(200) != 0xdeadbeef {
		t.Error("u32")
	}
	if m.ReadU64(300) != 0x0123456789abcdef {
		t.Error("u64")
	}
	// Little-endian byte order.
	if m.ReadU8(100) != 0x34 || m.ReadU8(101) != 0x12 {
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
	if m.ReadU32(16) != 7 {
		t.Error("zero-value Memory must be usable")
	}
}

// Load must leave memory exactly as Write does — over the span and a
// byte either side, after whole aligned pages, unaligned spans over one
// to four pages, a span ending mid-page and a Load onto written pages —
// and adopt each page the span covers whole. Every src has spare
// capacity filled with other bytes, so aliasing a partial page instead
// of copying it shows up past the span's end.
func TestLoadMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	spans := [][2]uint64{
		{0, 2 * pageSize},                // aligned whole pages
		{3*pageSize + 17, pageSize},      // unaligned, two pages
		{5*pageSize + 5, 3*pageSize + 1}, // unaligned, four pages
		{10 * pageSize, pageSize + 100},  // ends mid-page
		{pageSize - 9, 2*pageSize + 20},  // onto written pages
		{10*pageSize + 50, 60},           // inside one written page
	}
	for range 40 {
		addr := rng.Uint64N(12 * pageSize)
		if rng.IntN(2) == 0 {
			addr &^= pageMask
		}
		spans = append(spans, [2]uint64{addr, 1 + rng.Uint64N(4*pageSize)})
	}
	loaded, written := New(), New()
	for _, sp := range spans {
		addr, n := sp[0], sp[1]
		buf := make([]byte, n+pageSize)
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		src := buf[:n]
		written.Write(addr, src)
		loaded.Load(addr, src)

		want, got := make([]byte, n+2), make([]byte, n+2)
		written.Read(addr-1, want)
		loaded.Read(addr-1, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("Load(%#x, %d bytes) reads back differently from Write", addr, n)
		}
		if len(loaded.pages) != len(written.pages) {
			t.Fatalf("Load(%#x, %d bytes): %d pages, Write made %d", addr, n, len(loaded.pages), len(written.pages))
		}
		for k := (pageSize - addr&pageMask) & pageMask; k+pageSize <= n; k += pageSize {
			if p := loaded.pages[(addr+k)>>pageShift]; &p[0] != &src[k] {
				t.Fatalf("Load(%#x, %d bytes) copied the whole page at %#x instead of adopting it", addr, n, addr+k)
			}
		}
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
