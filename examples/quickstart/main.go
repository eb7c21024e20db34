// Quickstart: assemble a tiny 3D-vectorized program with the trace
// builder, execute it on the functional emulator while recording its
// stream, and time the stream on the cycle simulator.
//
// The program loads a 4x32-byte matrix into a 3D register with one
// dvload, slices it into MOM registers with 3dvmov at one-byte offsets
// (the overlapped-streams trick of the paper), and accumulates packed
// sums of absolute differences.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mmem"
	"repro/internal/prog"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vmem"
)

func main() { run(os.Stdout) }

// run records the program, times it, and reports both to w.
func run(w io.Writer) {
	stream, st, sad := record()
	fmt.Fprintf(w, "emulated SAD total: %d\n", sad)
	fmt.Fprintf(w, "trace: %d instructions, %d memory bytes\n", st.Total, st.MemBytes)

	g := machine(stream)
	g.Run()
	stats := g.Stats(0)
	fmt.Fprintf(w, "simulated: %d cycles, IPC %.2f\n", stats.Cycles, stats.IPC())
	fmt.Fprintf(w, "L2 accesses: %d (one wide access per dvload row)\n", g.Mem(0).L2Activity())
}

// record assembles and executes the program, and returns its stream,
// the stream's statistics and the SAD total the emulator computed.
func record() (*trace.Stream, *trace.Stats, int64) {
	// Architectural memory with a recognizable 4-row matrix.
	mem := mmem.New()
	const base, stride = 0x1000, 64
	for row := 0; row < 4; row++ {
		for i := 0; i < 32; i++ {
			mem.WriteU8(base+uint64(row*stride+i), uint8(row*10+i))
		}
	}

	m := emu.New(mem)
	var rec trace.Recorder
	stream, st := rec.Record(func(sink trace.Sink) {
		b := prog.New(m, sink)
		b.MovImm(isa.R(1), base)
		b.DVLoad(isa.D(0), isa.R(1), 0, stride, 4 /*rows*/, 4 /*words wide*/, false, 8)
		b.AccClr(isa.A(0))
		for slice := 0; slice < 8; slice++ {
			b.DVMov(isa.V(1), isa.D(0), 1, 4) // 8-byte slice of each row, ptr++
			b.VSadAcc(isa.A(0), isa.V(1), isa.V(2), 4)
		}
		b.AccMov(isa.R(2), isa.A(0))
	})
	return stream, st, m.IntVal(isa.R(2))
}

// machine is the MOM processor over the vector cache with the 3D
// register file datapath: a group of one on the event wheel, as every
// run the commands make is.
func machine(stream *trace.Stream) *tenant.Group {
	cfg := core.MOMCore()
	return tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Lanes: cfg.Lanes,
		Tim: vmem.DefaultTiming(), Streams: []*trace.Stream{stream}, Engine: engine.Wheel})
}
