package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TestStreamsMatchGolden pins the instruction streams themselves: for
// every small benchmark under every variant, the dynamic instruction
// count and a SHA-256 over every field of every isa.Inst, in field order.
// The output digests of TestVariantsMatchReference say a kernel computes
// the right answer; this file says it still emits the same instructions,
// so a refactor of a code generator is done when the file has not
// changed.
//
// Update procedure — ONLY when a change moves an emitted instruction on
// purpose:
//
//	go test ./internal/kernels -run TestStreamsMatchGolden -update-golden
//
// then say in the change why each changed line changed.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite internal/kernels/testdata/streams.txt from the current kernels")

const streamsGoldenPath = "testdata/streams.txt"

// instHash is a trace sink that counts instructions and hashes each one
// field by field: the opcode as its mnemonic and a zero byte, so the pin
// holds the program rather than the enum's numbering, and every other
// integer and bool field as 8 little-endian bytes.
type instHash struct {
	n   int
	h   hash.Hash
	buf []byte
}

func (s *instHash) Emit(in isa.Inst) {
	s.n++
	s.buf = s.buf[:0]
	v := reflect.ValueOf(in)
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name == "Op" {
			s.buf = append(append(s.buf, in.Op.Name()...), 0)
			continue
		}
		f := v.Field(i)
		var u uint64
		switch f.Kind() {
		case reflect.Bool:
			if f.Bool() {
				u = 1
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			u = uint64(f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			u = f.Uint()
		default:
			panic(fmt.Sprintf("isa.Inst field %s has kind %v", v.Type().Field(i).Name, f.Kind()))
		}
		s.buf = binary.LittleEndian.AppendUint64(s.buf, u)
	}
	s.h.Write(s.buf)
}

func renderStreams() string {
	var b strings.Builder
	for _, bm := range small() {
		for _, v := range variants {
			s := &instHash{h: sha256.New()}
			bm.Run(v, s)
			fmt.Fprintf(&b, "%s %v %d %x\n", bm.Name, v, s.n, s.h.Sum(nil))
		}
	}
	return b.String()
}

func TestStreamsMatchGolden(t *testing.T) {
	got := renderStreams()
	if *updateGolden {
		if err := os.WriteFile(streamsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", streamsGoldenPath)
		return
	}
	want, err := os.ReadFile(streamsGoldenPath)
	if err != nil {
		t.Fatalf("streams golden file missing (%v); generate it with -update-golden", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs\n  golden   %q\n  streamed %q", i+1, wl[i], gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("streamed %d lines, golden has %d", len(gl), len(wl))
	}
}

// TestEveryOpcodeIsEmitted holds the ISA to the kernels' traffic: every
// opcode is emitted by some small benchmark under some variant (the
// full-size suite emits the same set), so an opcode lands with the
// kernel that emits it and goes when the last one stops.
func TestEveryOpcodeIsEmitted(t *testing.T) {
	st := trace.NewStats()
	for _, bm := range small() {
		for _, v := range variants {
			bm.Run(v, st)
		}
	}
	for op := range isa.NumOps {
		if st.ByOp[op] == 0 {
			t.Errorf("no stream emits %s", isa.Op(op).Name())
		}
	}
}
