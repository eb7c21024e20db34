package kernels

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// variants lists every ISA variant in presentation order.
var variants = []Variant{MMX, MOM, MOM3D}

// small returns test-scale versions of all five paper benchmarks plus
// the HD motionsearch stream.
func small() []Benchmark {
	return []Benchmark{
		JPEGEncode(SmallJPEGEncConfig()),
		JPEGDecode(SmallJPEGDecConfig()),
		MPEG2Decode(SmallMPEG2DecConfig()),
		MPEG2Encode(SmallMPEG2EncConfig()),
		GSMEncode(SmallGSMEncConfig()),
		MotionSearch(SmallMotionSearchConfig()),
	}
}

// TestVariantsMatchReference is the central correctness property of the
// whole kernel layer: the MMX, MOM and MOM+3D compilations of every
// benchmark compute bit-identical outputs to the scalar reference.
func TestVariantsMatchReference(t *testing.T) {
	for _, bm := range small() {
		ref := bm.Reference()
		if len(ref) == 0 {
			t.Fatalf("%s: empty reference digest", bm.Name)
		}
		for _, v := range variants {
			st := trace.NewStats()
			got := bm.Run(v, st)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s/%v: digest mismatch (got %d bytes, want %d)",
					bm.Name, v, len(got), len(ref))
			}
			if st.Total == 0 {
				t.Errorf("%s/%v: empty trace", bm.Name, v)
			}
		}
	}
}

// TestTraceShapes checks the ISA-level structure of the generated streams.
func TestTraceShapes(t *testing.T) {
	for _, bm := range small() {
		counts := map[Variant]*trace.Stats{}
		for _, v := range variants {
			st := trace.NewStats()
			bm.Run(v, st)
			counts[v] = st
		}
		mmx, mom, m3d := counts[MMX], counts[MOM], counts[MOM3D]

		// The MMX build must contain no MOM or 3D instructions.
		if mmx.ByKind[isa.KindMOM] != 0 || mmx.ByKind[isa.KindMOMMem] != 0 ||
			mmx.ByKind[isa.Kind3DLoad] != 0 || mmx.ByKind[isa.Kind3DMove] != 0 {
			t.Errorf("%s/MMX: contains MOM instructions", bm.Name)
		}
		// The MOM builds must contain no μSIMD instructions.
		if mom.ByKind[isa.KindUSIMD] != 0 || mom.ByKind[isa.KindUSIMDMem] != 0 {
			t.Errorf("%s/MOM: contains μSIMD instructions", bm.Name)
		}
		// MOM must shrink the dynamic instruction count substantially
		// (the 2D ISA's core claim: more work per instruction).
		if mom.Total >= mmx.Total {
			t.Errorf("%s: MOM trace (%d) not smaller than MMX (%d)",
				bm.Name, mom.Total, mmx.Total)
		}
		// 3D instructions appear exactly when the benchmark has suitable
		// patterns (paper §5.1: all but jpegdecode).
		has3D := m3d.ByKind[isa.Kind3DLoad] > 0
		if has3D != bm.Has3D {
			t.Errorf("%s: 3D loads present=%v, want %v", bm.Name, has3D, bm.Has3D)
		}
		if bm.Has3D {
			if m3d.ByKind[isa.Kind3DMove] == 0 {
				t.Errorf("%s/MOM3D: dvloads without 3dvmovs", bm.Name)
			}
			// 3D vectorization must not inflate memory traffic, and it
			// must pack the same traffic into fewer vector memory
			// instructions (wider accesses, the Fig 6 effect). Strict
			// byte reduction only holds where 2D streams overlap
			// (mpeg2encode, gsmencode).
			if m3d.MemBytes > mom.MemBytes {
				t.Errorf("%s: MOM3D memory bytes (%d) above MOM (%d)",
					bm.Name, m3d.MemBytes, mom.MemBytes)
			}
			if m3d.VecMemInsts >= mom.VecMemInsts {
				t.Errorf("%s: MOM3D vector memory instructions (%d) not below MOM (%d)",
					bm.Name, m3d.VecMemInsts, mom.VecMemInsts)
			}
			if bm.Name == "mpeg2encode" || bm.Name == "gsmencode" || bm.Name == "motionsearch" {
				if m3d.MemBytes >= mom.MemBytes {
					t.Errorf("%s: overlapping streams must cut bytes (%d vs %d)",
						bm.Name, m3d.MemBytes, mom.MemBytes)
				}
			}
		} else if m3d.ByKind[isa.Kind3DMove] != 0 {
			t.Errorf("%s: unexpected 3dvmovs", bm.Name)
		}
	}
}

// TestDimsReported checks Table 1 inputs: packing and vector lengths.
func TestDimsReported(t *testing.T) {
	for _, bm := range small() {
		st := trace.NewStats()
		bm.Run(MOM, st)
		d1, d2, _, _, has3 := st.Dims()
		if has3 {
			t.Errorf("%s/MOM: must not have 3D instructions", bm.Name)
		}
		if d1 < 1 || d1 > 8 {
			t.Errorf("%s: dim1 = %.2f out of range", bm.Name, d1)
		}
		if d2 < 1 || d2 > 16 {
			t.Errorf("%s: dim2 = %.2f out of range", bm.Name, d2)
		}
		st3 := trace.NewStats()
		bm.Run(MOM3D, st3)
		_, _, d3, d3max, has3 := st3.Dims()
		if bm.Has3D {
			if !has3 || d3 <= 1 {
				t.Errorf("%s/MOM3D: dim3 = %.2f, want > 1", bm.Name, d3)
			}
			if d3max < 2 {
				t.Errorf("%s/MOM3D: dim3 max = %d, want >= 2", bm.Name, d3max)
			}
		}
	}
}

// TestDCTRoundTrip: quantized-then-reconstructed blocks stay close to the
// original (sanity of the fixed-point transform pair).
func TestDCTRoundTrip(t *testing.T) {
	var blk [64]int16
	for i := range blk {
		blk[i] = int16((i*37)%255 - 128)
	}
	f := RefFDCT(&blk)
	r := RefIDCT(&f)
	for i := range blk {
		d := int(blk[i]) - int(r[i])
		if d < -8 || d > 8 {
			t.Fatalf("coef %d: %d -> %d (error %d)", i, blk[i], r[i], d)
		}
	}
}

// TestDCTLinearity: the transform of a zero block is zero; DC-only blocks
// reconstruct flat.
func TestDCTZero(t *testing.T) {
	var zero [64]int16
	f := RefFDCT(&zero)
	for i, v := range f {
		if v != 0 {
			t.Fatalf("FDCT(0)[%d] = %d", i, v)
		}
	}
	var flat [64]int16
	for i := range flat {
		flat[i] = 100
	}
	f = RefFDCT(&flat)
	if f[0] < 780 || f[0] > 820 { // 8*100 = 800 expected DC
		t.Errorf("DC of flat block = %d, want ~800", f[0])
	}
	for i := 1; i < 64; i++ {
		if f[i] < -2 || f[i] > 2 {
			t.Errorf("AC[%d] of flat block = %d, want ~0", i, f[i])
		}
	}
}

func TestQuantRoundTrip(t *testing.T) {
	var f [64]int16
	for i := range f {
		f[i] = int16(i*53%2000 - 1000)
	}
	recips := quantRecips(&mpeg2QuantTable)
	q := refQuant(&f, &recips)
	dq := refDequant(&q, &mpeg2QuantTable)
	for i := range f {
		d := int(f[i]) - int(dq[i])
		if d < -40 || d > 40 { // within ~2 quant steps of 16
			t.Errorf("coef %d: %d -> %d", i, f[i], dq[i])
		}
	}
}

func TestPackedCoefLayout(t *testing.T) {
	p := packedCoefLayout(&fdctCoef)
	if len(p) != 64 {
		t.Fatal("layout size")
	}
	// Spot-check group g=1, pair p=2: words [T[2][4], T[2][5], T[3][4], T[3][5]].
	base := (1*4 + 2) * 4
	want := []int16{fdctCoef[2][4], fdctCoef[2][5], fdctCoef[3][4], fdctCoef[3][5]}
	for i, w := range want {
		if p[base+i] != w {
			t.Errorf("packed[%d] = %d, want %d", base+i, p[base+i], w)
		}
	}
}

func TestAllRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range All() {
		names[bm.Name] = true
	}
	for _, want := range []string{"mpeg2encode", "mpeg2decode", "jpegencode", "jpegdecode", "gsmencode"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
	// The paper suite stays exactly the paper's five; the extra
	// workloads only join the extended registry the CLIs resolve.
	if names["motionsearch"] {
		t.Error("motionsearch must not join the paper's five-benchmark suite")
	}
	if _, ok := ByName("mpeg2encode"); !ok {
		t.Error("ByName failed")
	}
	if bm, ok := ByName("motionsearch"); !ok || bm.Name != "motionsearch" {
		t.Error("ByName must resolve the extended suite")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName found a ghost")
	}
}

func TestVariantString(t *testing.T) {
	if MMX.String() != "MMX" || MOM.String() != "MOM" || MOM3D.String() != "MOM+3D" {
		t.Error("variant names wrong")
	}
}

func TestParseVariant(t *testing.T) {
	for s, want := range map[string]Variant{
		"mmx": MMX, "mom": MOM, "mom3d": MOM3D, "mom+3d": MOM3D,
		"MMX": MMX, "Mom": MOM, "MoM3D": MOM3D, "MOM+3D": MOM3D,
	} {
		if got, err := ParseVariant(s); err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	_, err := ParseVariant("sse")
	if err == nil {
		t.Fatal(`ParseVariant("sse") accepted an unknown ISA`)
	}
	for _, name := range []string{"mmx", "mom", "mom3d"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-ISA error %q does not list %s", err, name)
		}
	}
}

// TestRowsStripMines pins the row emitter's own arithmetic, which the
// stream digests reach only where some stream happens to need it (a
// partial last strip, say): under MMX one μSIMD instruction per row at
// off + y*stride, under MOM and MOM+3D one MOM instruction per strip of
// at most 16 rows, at the strip's first row, with the strip's VL.
func TestRowsStripMines(t *testing.T) {
	rB := isa.R(1)
	// Each step's load address and VL (0 for a μSIMD row); the body
	// loads at 0x1008 + 16y and stores 0x400 above.
	mmx := func(addrs ...uint64) (steps [][2]uint64) {
		for _, a := range addrs {
			steps = append(steps, [2]uint64{a, 0})
		}
		return steps
	}
	cases := []struct {
		v     Variant
		n     int
		steps [][2]uint64
	}{
		{MMX, 8, mmx(0x1008, 0x1018, 0x1028, 0x1038, 0x1048, 0x1058, 0x1068, 0x1078)},
		{MMX, 16, mmx(0x1008, 0x1018, 0x1028, 0x1038, 0x1048, 0x1058, 0x1068, 0x1078,
			0x1088, 0x1098, 0x10a8, 0x10b8, 0x10c8, 0x10d8, 0x10e8, 0x10f8)},
		{MMX, 20, mmx(0x1008, 0x1018, 0x1028, 0x1038, 0x1048, 0x1058, 0x1068, 0x1078,
			0x1088, 0x1098, 0x10a8, 0x10b8, 0x10c8, 0x10d8, 0x10e8, 0x10f8,
			0x1108, 0x1118, 0x1128, 0x1138)},
		{MOM, 8, [][2]uint64{{0x1008, 8}}},
		{MOM, 16, [][2]uint64{{0x1008, 16}}},
		{MOM, 20, [][2]uint64{{0x1008, 16}, {0x1108, 4}}},
		{MOM3D, 20, [][2]uint64{{0x1008, 16}, {0x1108, 4}}},
	}
	for _, c := range cases {
		var tr trace.Trace
		e := newEnv(c.v, &tr)
		e.setBase(rB, 0x1000)
		e.rows(c.n, func(r row) {
			r.ld(vT0, rB, 8, 16, 8)
			r.opi(isa.OpPSraW, vT0, vT0, 2)
			r.op(isa.OpPAddW, vT1, vT0, vT0)
			r.st(rB, 0x408, 16, vT1, 8)
		})
		var want []isa.Inst
		for _, s := range c.steps {
			addr, vl := s[0], int(s[1])
			mem, alu, stride := isa.KindUSIMDMem, isa.KindUSIMD, int64(0)
			if vl > 0 {
				mem, alu, stride = isa.KindMOMMem, isa.KindMOM, 16
			}
			want = append(want,
				isa.Inst{Op: isa.OpVLoad, Kind: mem, Dst: vT0, Src1: rB, Imm: 8, Addr: addr, VL: vl, Stride: stride},
				isa.Inst{Op: isa.OpPSraW, Kind: alu, Dst: vT0, Src1: vT0, Imm: 2, VL: vl},
				isa.Inst{Op: isa.OpPAddW, Kind: alu, Dst: vT1, Src1: vT0, Src2: vT0, VL: vl},
				isa.Inst{Op: isa.OpVStore, Kind: mem, Src1: rB, Src2: vT1, Imm: 8, Addr: addr + 0x400,
					VL: vl, Stride: stride, IsStore: true})
		}
		got := tr.Insts[1:] // after the base's MovImm
		if len(got) != len(want) {
			t.Errorf("%v rows(%d): %d instructions, want %d", c.v, c.n, len(got), len(want))
			continue
		}
		for i := range want {
			want[i].Seq = uint64(i + 1)
			if got[i] != want[i] {
				t.Errorf("%v rows(%d) instruction %d:\n got %+v\nwant %+v", c.v, c.n, i, got[i], want[i])
			}
		}
	}
}
