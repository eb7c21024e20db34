// Command momtrace generates a benchmark's dynamic instruction trace and
// inspects it: stream statistics, instruction mix, Table 1 dimension
// profile, and optionally a disassembly window. -json <file> exports
// the same profile machine-readably — hierarchical snake_case counter
// names in the -statsjson key style (trace.total, trace.kind.mom_mem,
// trace.op.dvload, ...) plus the Table 1 dimension averages — so sweep
// tooling can consume the instruction mix without scraping the report.
//
// Usage:
//
//	momtrace -bench gsmencode -isa mom3d
//	momtrace -bench mpeg2encode -isa mom3d -dump 40 -skip 1000
//	momtrace -bench gsmencode -isa mom3d -json mix.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	benchName := flag.String("bench", "mpeg2encode", "benchmark name")
	isaName := flag.String("isa", "mom3d", "ISA variant: mmx, mom, mom3d")
	dump := flag.Int("dump", 0, "disassemble this many instructions")
	skip := flag.Int("skip", 0, "skip this many instructions before dumping")
	jsonFile := flag.String("json", "", "write the instruction-mix profile as JSON to this file")
	flag.Parse()
	if *skip < 0 || *dump < 0 {
		fmt.Fprintf(os.Stderr, "momtrace: -skip %d -dump %d: an instruction count cannot be negative\n", *skip, *dump)
		os.Exit(1)
	}

	bm, ok := kernels.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "momtrace: unknown benchmark %q\n", *benchName)
		os.Exit(1)
	}
	variant, err := kernels.ParseVariant(*isaName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "momtrace: %v\n", err)
		os.Exit(1)
	}

	if err := stats.CreateOutputs(stats.Output{Flag: "json", Path: *jsonFile}); err != nil {
		fmt.Fprintf(os.Stderr, "momtrace: %v\n", err)
		os.Exit(1)
	}

	var rec trace.Recorder
	stream, st := rec.Record(func(sink trace.Sink) { bm.Run(variant, sink) })
	if *skip > 0 && *skip >= stream.Len() {
		fmt.Fprintf(os.Stderr, "momtrace: -skip %d is past the stream's %d instructions\n", *skip, stream.Len())
		os.Exit(1)
	}

	fmt.Printf("%s / %s\n", bm.Name, variant)
	fmt.Print(st.String())

	d1, d2, d3, mx, has3 := st.Dims()
	if st.VecMemInsts > 0 {
		fmt.Printf("Table 1 dims: 1st %.1f, 2nd %.1f", d1, d2)
		if has3 {
			fmt.Printf(", 3rd %.1f (max %d); %.1f slices per dvload", d3, mx, st.SlicesPerLoad())
		}
		fmt.Println()
	}

	// Top opcodes.
	type oc struct {
		op isa.Op
		n  uint64
	}
	var tops []oc
	for op, n := range st.ByOp {
		if n > 0 {
			tops = append(tops, oc{isa.Op(op), n})
		}
	}
	for i := 0; i < len(tops); i++ {
		for j := i + 1; j < len(tops); j++ {
			if tops[j].n > tops[i].n {
				tops[i], tops[j] = tops[j], tops[i]
			}
		}
	}
	fmt.Println("top opcodes:")
	for i, t := range tops {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-10s %10d\n", t.op.Name(), t.n)
	}

	if *dump > 0 {
		fmt.Println()
		for i, in := range stream.All() {
			if i >= *skip+*dump {
				break
			}
			if i >= *skip {
				fmt.Printf("%8d  %s\n", in.Seq, in.String())
			}
		}
	}

	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, bm.Name, variant.String(), st); err != nil {
			fmt.Fprintf(os.Stderr, "momtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("json: wrote the instruction-mix profile to %s\n", *jsonFile)
	}
}

// traceDoc is the machine-readable instruction-mix export: counters
// keyed in the hierarchical snake_case style of momsim -statsjson,
// and the Table 1 dimension averages as floats. Map keys marshal
// sorted, so the output is deterministic.
type traceDoc struct {
	Bench    string             `json:"bench"`
	ISA      string             `json:"isa"`
	Counters map[string]uint64  `json:"counters"`
	Dims     map[string]float64 `json:"dims,omitempty"`
}

// jsonKey folds a kind or op display name into the snake_case key
// style ("mom-mem" → "mom_mem").
func jsonKey(s string) string { return strings.ReplaceAll(s, "-", "_") }

func writeJSON(path, bench, variant string, st *trace.Stats) error {
	doc := traceDoc{Bench: bench, ISA: variant, Counters: map[string]uint64{
		"trace.total":         st.Total,
		"trace.mem_bytes":     st.MemBytes,
		"trace.branches":      st.Branches,
		"trace.taken":         st.Taken,
		"trace.vec_mem_insts": st.VecMemInsts,
		"trace.d3_move_elems": st.D3MoveElems,
	}}
	for k, n := range st.ByKind {
		if n > 0 {
			doc.Counters["trace.kind."+jsonKey(isa.Kind(k).String())] = n
		}
	}
	for op, n := range st.ByOp {
		if n > 0 {
			doc.Counters["trace.op."+jsonKey(isa.Op(op).Name())] = n
		}
	}
	if st.VecMemInsts > 0 {
		d1, d2, d3, mx, has3 := st.Dims()
		doc.Dims = map[string]float64{"first": d1, "second": d2}
		if has3 {
			doc.Dims["third"] = d3
			doc.Dims["max_third"] = float64(mx)
			doc.Dims["slices_per_dvload"] = st.SlicesPerLoad()
		}
	}
	return stats.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
