// Package kernels implements the five Mediabench-derived benchmarks of the
// paper (§5.1) — mpeg2encode, mpeg2decode, jpegencode, jpegdecode,
// gsmencode — each hand-vectorized three ways:
//
//   - MMX: the 1D μSIMD baseline (per-64-bit-word operations),
//   - MOM: the 2D matrix ISA (vector-of-μSIMD with VL and stride),
//   - MOM3D: MOM plus the paper's 3D memory vectorization (dvload/3dvmov).
//
// Every benchmark also has a pure-Go scalar reference using identical
// fixed-point arithmetic; Run and Reference return equal SHA-256 digests
// of the serialized outputs, which the integration tests assert for all
// variants. This is the repository's ground truth that the new
// instructions compute the same results as the code they replace.
//
// Inputs are deterministic synthetic media from internal/media (see
// DESIGN.md §3 for the substitution rationale). Workload dimensions are
// scaled down from the paper's inputs so cycle simulations finish in
// seconds; ratios between configurations are what the experiments report.
//
// Register conventions (shared by all kernels):
//
//	r0..r19    kernel locals and address bases
//	r20..r26   DCT/quant table bases (codegen.go)
//	v0         packed zero
//	v1..v13    codegen working registers
//	v14, v15   resident quant tables (MOM variants)
//	v16..v31   resident DCT coefficient / d-vector cache (MMX variant only)
package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/media"
	"repro/internal/mmem"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Variant selects which ISA style a benchmark is generated for.
type Variant int

const (
	// MMX is the 1D μSIMD baseline ISA.
	MMX Variant = iota
	// MOM is the 2D matrix ISA.
	MOM
	// MOM3D is MOM extended with 3D memory vectorization.
	MOM3D
)

// String names the variant as the paper's figures do.
func (v Variant) String() string {
	switch v {
	case MMX:
		return "MMX"
	case MOM:
		return "MOM"
	case MOM3D:
		return "MOM+3D"
	}
	return "?"
}

// ParseVariant reads an ISA name as the commands spell it: mmx, mom,
// mom3d or mom+3d, in any case.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "mmx":
		return MMX, nil
	case "mom":
		return MOM, nil
	case "mom3d", "mom+3d":
		return MOM3D, nil
	}
	return 0, fmt.Errorf("unknown ISA %q (mmx, mom, mom3d)", s)
}

// Benchmark is one traced media workload.
type Benchmark struct {
	// Name is the Mediabench-style benchmark name.
	Name string
	// Has3D reports whether the MOM3D variant actually uses 3D memory
	// instructions (false for jpegdecode, per §5.1 of the paper).
	Has3D bool

	run func(v Variant, sink trace.Sink) []byte
	ref func() []byte
}

// Run generates the dynamic trace for the given variant into sink and
// returns the output digest (the SHA-256 of the serialized results).
func (bm Benchmark) Run(v Variant, sink trace.Sink) []byte { return bm.run(v, sink) }

// Reference computes the same outputs with the pure-Go scalar reference.
func (bm Benchmark) Reference() []byte { return bm.ref() }

// All returns the five benchmarks at their default (experiment) sizes, in
// the order the paper's figures list them.
func All() []Benchmark {
	return []Benchmark{
		JPEGEncode(DefaultJPEGEncConfig()),
		JPEGDecode(DefaultJPEGDecConfig()),
		MPEG2Decode(DefaultMPEG2DecConfig()),
		MPEG2Encode(DefaultMPEG2EncConfig()),
		GSMEncode(DefaultGSMEncConfig()),
	}
}

// Extended returns the paper's five benchmarks plus the repository's
// own workloads — currently the HD-frame motionsearch stream, whose
// working set outgrows the 2MB L2 and exercises the DRAM path at full
// size. The paper-reproduction figures iterate All; the CLIs resolve
// names against Extended.
func Extended() []Benchmark {
	return append(All(), MotionSearch(DefaultMotionSearchConfig()))
}

// ByName finds a default-size benchmark by name.
func ByName(name string) (Benchmark, bool) {
	for _, bm := range Extended() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}

// env is the per-run generation environment: a fresh machine, builder and
// address-space allocator.
type env struct {
	b  *prog.Builder
	m  *emu.Machine
	al *mmem.Allocator
	v  Variant
}

func newEnv(v Variant, sink trace.Sink) *env {
	m := emu.New(mmem.New())
	return &env{
		b:  prog.New(m, sink),
		m:  m,
		al: mmem.NewAllocator(0x1_0000),
		v:  v,
	}
}

// alloc reserves a block in the traced program's address space.
func (e *env) alloc(size, align int) uint64 { return e.al.Alloc(size, align) }

// input reserves a picture's bytes in the traced program's address
// space and maps them there lazily: a page is built the first time the
// kernel touches it.
func (e *env) input(p media.Picture) uint64 {
	a := e.alloc(p.W*p.H, 64)
	e.m.Mem.Lazy(a, uint64(p.W*p.H), p.Fill)
	return a
}

// setBase materializes an address constant into a scalar register.
func (e *env) setBase(r isa.Reg, addr uint64) { e.b.MovImm(r, int64(addr)) }

// write16 stores an int16 slice into emulated memory.
func (e *env) write16(addr uint64, vals []int16) {
	for i, v := range vals {
		e.m.Mem.WriteU16(addr+uint64(2*i), uint16(v))
	}
}

// digest hashes a kernel's serialized outputs with SHA-256, so Run and
// Reference return 32 bytes however large the outputs are. Fixed-width
// values are staged in buf: the digest is on the heap already, where a
// stack array passed to the hash would escape on every call.
type digest struct {
	h   hash.Hash
	buf [4096]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() []byte { return d.h.Sum(nil) }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

// mem hashes n bytes of emulated memory from addr, a buffer at a time.
func (d *digest) mem(m *mmem.Memory, addr uint64, n int) {
	for n > 0 {
		k := min(n, len(d.buf))
		m.Read(addr, d.buf[:k])
		d.h.Write(d.buf[:k])
		addr, n = addr+uint64(k), n-k
	}
}

func (d *digest) u16s(v []int16) { binary.Write(d.h, binary.LittleEndian, v) }

func (d *digest) u32(v uint32) {
	binary.LittleEndian.PutUint32(d.buf[:], v)
	d.h.Write(d.buf[:4])
}

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:8])
}
