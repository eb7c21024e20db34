// Package mmem provides the architectural (functional) memory image used by
// the emulator and the trace builder: a sparse, paged, byte-addressable
// 64-bit address space with little-endian multi-byte accessors.
//
// This is the "real machine memory" whose addresses drive the cache
// models; it has no timing of its own.
package mmem

import "encoding/binary"

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse byte-addressable memory image. The zero value is
// ready to use; unwritten bytes read as zero.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// New returns an empty memory image.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	key := addr >> pageShift
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// ReadU8 returns the byte at addr (zero if never written).
func (m *Memory) ReadU8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// WriteU8 stores one byte at addr.
func (m *Memory) WriteU8(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read copies len(dst) bytes starting at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := pageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// Write copies src into memory starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := pageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// Load is Write for a buffer the caller gives up: every page src covers
// whole becomes that span of src itself, and only the partial pages at
// either end are copied. Stores to an adopted page land in src, so the
// caller must not use src again.
func (m *Memory) Load(addr uint64, src []byte) {
	if m.pages == nil {
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	for len(src) > 0 {
		n := min(pageSize-addr&pageMask, uint64(len(src)))
		if n == pageSize {
			m.pages[addr>>pageShift] = (*[pageSize]byte)(src)
		} else {
			m.Write(addr, src[:n])
		}
		src = src[n:]
		addr += n
	}
}

// ReadU16 reads a little-endian 16-bit value.
func (m *Memory) ReadU16(addr uint64) uint16 {
	var b [2]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// WriteU16 writes a little-endian 16-bit value.
func (m *Memory) WriteU16(addr uint64, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit value.
func (m *Memory) ReadU32(addr uint64) uint32 {
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian 32-bit value.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit value.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}

// Allocator hands out non-overlapping address ranges from a memory image,
// mimicking a bump allocator in the traced program's address space.
type Allocator struct {
	next uint64
}

// NewAllocator starts allocating at base.
func NewAllocator(base uint64) *Allocator {
	return &Allocator{next: base}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the base address of the reservation.
func (a *Allocator) Alloc(size int, align int) uint64 {
	if align <= 0 {
		align = 1
	}
	mask := uint64(align - 1)
	a.next = (a.next + mask) &^ mask
	addr := a.next
	a.next += uint64(size)
	return addr
}
