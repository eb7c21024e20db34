// Package mmem provides the architectural (functional) memory image used by
// the emulator and the trace builder: a sparse, paged, byte-addressable
// 64-bit address space with little-endian multi-byte accessors.
//
// This is the "real machine memory" whose addresses drive the cache
// models; it has no timing of its own.
package mmem

import (
	"encoding/binary"
	"slices"
)

// A page is 4 KiB, carved from a 64 KiB slab: one allocation per
// slabPages pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	slabPages = 16
)

type page = [pageSize]byte

// Memory is a sparse byte-addressable memory image. The zero value is
// ready to use; unwritten bytes read as zero, or as the content of a
// region mapped with Lazy.
type Memory struct {
	pages   map[uint64]*page
	slab    []page // the current slab's pages not yet handed out
	regions []region
}

// region is one Lazy mapping: size bytes at addr, filled by fill.
type region struct {
	addr, size uint64
	fill       func(off uint64, dst []byte)
}

// New returns an empty memory image, its page map sized for the 32
// pages (128 KiB) that hold every kernel's data but motionsearch's.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page, 32)}
}

// Lazy maps size bytes at addr whose content is fill's: fill(off, dst)
// writes the region's bytes from off on into dst. A page is filled the
// first time it is read or written, before the store lands, so a
// kernel builds only the input bytes it touches. Lazy acts as a Write
// of the whole region would: a page the region shares with other
// regions gets every fill, in the order they were mapped, and a page
// that exists already is filled at once. The region need not be
// page-aligned.
func (m *Memory) Lazy(addr, size uint64, fill func(off uint64, dst []byte)) {
	r := region{addr, size, fill}
	m.regions = append(m.regions, r)
	for key := addr >> pageShift; key<<pageShift < addr+size; key++ {
		if p := m.pages[key]; p != nil {
			r.fillPage(key, p)
		}
	}
}

// fillPage writes the region's bytes on page key into p.
func (r *region) fillPage(key uint64, p *page) {
	base := key << pageShift
	lo, hi := max(r.addr, base), min(r.addr+r.size, base+pageSize)
	if lo < hi {
		r.fill(lo-r.addr, p[lo-base:hi-base])
	}
}

// page returns the page holding addr. A page that does not exist yet
// is made if create is set or a region covers any of it, and is then
// filled from every region that does; otherwise page returns nil.
func (m *Memory) page(addr uint64, create bool) *page {
	key := addr >> pageShift
	if p := m.pages[key]; p != nil {
		return p
	}
	base := key << pageShift
	if !create && !slices.ContainsFunc(m.regions, func(r region) bool {
		return r.addr < base+pageSize && base < r.addr+r.size
	}) {
		return nil
	}
	if m.pages == nil {
		m.pages = make(map[uint64]*page)
	}
	if len(m.slab) == 0 {
		m.slab = make([]page, slabPages)
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	m.pages[key] = p
	for i := range m.regions {
		m.regions[i].fillPage(key, p)
	}
	return p
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
