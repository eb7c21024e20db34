// Command bench is the repository's host-performance benchmark: five
// workloads that are what people run (the paper evaluation under each
// engine, the DRAM sweeps, the row-policy sweep under the per-cycle
// oracle, the multi-tenant sweeps), end-to-end metrics measured with
// tracing off, and a traced pass that attributes host time to the
// simulator's layers by timing calls into their public functions.
// BENCHMARK.json declares every name it prints; README.md says what
// each one means and what it should move.
//
// Usage, from the repository root:
//
//	go run ./bench                        every workload, end-to-end pass
//	go run ./bench -traced                ... plus the per-layer pass
//	go run ./bench -workload rp-step      one workload; the last line is its result as JSON
//	go run ./bench -trace 1 -workload W   the per-layer pass alone
//	go run ./bench compare A.json B.json  judge B against baseline A
//
// The load is a closed loop with one client: a fixed amount of work
// per iteration, iterations back to back, one sweep worker. Every
// workload runs in fresh child processes so that heap growth, GC state
// and the resident-set high-water mark are its own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processes is how many child processes measure one workload. Set-up
// happens once per process, so this is the sample count of setup_s and
// peak_rss_mb.
//
// secondsPerIteration turns the measuring time asked for into a fixed
// amount of work: one timed iteration in each process per that many
// seconds (an iteration takes 1.6–2.7 s). Fixed work, not a deadline,
// is what makes two commits — and two moods of a shared host — measure
// the same thing.
const (
	processes           = 3
	secondsPerIteration = 5
)

// outDir receives the result and span files; .gitignore names it.
const outDir = ".bench_out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	iters    int // timed iterations per process; < 0 = derive from seconds
	endToEnd bool
	traced   bool
	out      string
}

// metricValue is one per-layer metric of one workload.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one command learned about one workload.
type workloadResult struct {
	Name         string                 `json:"name"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	OutputDigest string                 `json:"output_digest"`
	CheckDigest  string                 `json:"check_digest"`
	PaperGapPts  float64                `json:"paper_gap_pts,omitempty"`
	EndToEnd     map[string]summary     `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check counts one output check as an operation.
func (r *workloadResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// result is the file -o writes and compare reads.
type result struct {
	Seed       uint64           `json:"seed"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Workloads  []workloadResult `json:"workloads"`
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// maxProcs is the benchmark's thread budget: the work is one thread,
// the second is the collector's.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var child bool
	var spawned int64
	var trace int
	var both bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all of them); its result is the last line, as JSON")
	flag.Uint64Var(&o.seed, "seed", 0, "XORed into every kernel's content seed; 0 reproduces the EXPERIMENTS.md reference inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "nominal measuring time per workload: one timed iteration per process per 5 s (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.iters, "iters", -1, "timed iterations per process, overriding -seconds")
	flag.IntVar(&trace, "trace", 0, "0: the end-to-end pass, tracing off; 1: the per-layer pass alone")
	flag.BoolVar(&both, "traced", false, "run the end-to-end pass and then the per-layer pass")
	flag.StringVar(&o.out, "o", filepath.Join(outDir, "result.json"), "write the result here as JSON")
	flag.BoolVar(&child, "child", false, "internal: measure in this process and print a report")
	flag.Int64Var(&spawned, "spawned", 0, "internal: when the parent started this child, Unix ns")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench [-workload name] [-seed n] [-seconds s | -iters n] [-trace 0|1 | -traced] [-o file]")
		fmt.Fprintln(os.Stderr, "       go run ./bench compare A.json B.json")
		os.Exit(2)
	}
	o.endToEnd, o.traced = trace == 0, trace == 1 || both

	if child {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		runtime.GOMAXPROCS(maxProcs())
		var rep childReport
		if o.traced {
			rep = traced(w, fullSuite(o.seed))
		} else {
			rep = measure(w, fullSuite(o.seed), time.Unix(0, spawned), o.iters)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
	}
	if o.iters < 0 {
		o.iters = max(1, int(math.Round(o.seconds/secondsPerIteration)))
	}
	todo := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		todo = []workload{w}
	}

	res := result{Seed: o.seed, GOMAXPROCS: maxProcs(), Go: runtime.Version()}
	checkDigests := map[string]string{}
	failed := 0
	for _, w := range todo {
		wr := runWorkload(m, w, o, checkDigests)
		printWorkload(m, wr, res)
		failed += wr.Failed
		res.Workloads = append(res.Workloads, wr)
	}
	if err := writeJSON(o.out, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(todo) == 1 {
		printContractLine(res.Workloads[0])
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench compare A.json B.json")
		return 2
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if compare(m, a, b, os.Stdout) {
		return 1
	}
	return 0
}

// spawn runs one child process of this binary and parses its report.
func spawn(name string, o options, traced bool, iters int) (childReport, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-iters", strconv.Itoa(iters), "-trace", trace,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("child process: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return rep, fmt.Errorf("child report: %w", err)
	}
	return rep, nil
}

// runWorkload measures one workload: the end-to-end pass in
// `processes` children, the ref workload's output if it has not been
// seen yet, and the traced pass in one more child.
func runWorkload(m *manifest, w workload, o options, checkDigests map[string]string) workloadResult {
	res := workloadResult{Name: w.name}
	count := func(rep childReport) {
		res.Attempted += rep.Attempted
		for _, f := range rep.Failures {
			res.fail("%s", f)
		}
	}
	absorb := func(rep childReport) {
		count(rep)
		if res.OutputDigest == "" {
			res.OutputDigest, res.CheckDigest, res.PaperGapPts = rep.Digest, rep.CheckDigest, rep.PaperGapPts
		}
	}

	if o.endToEnd {
		var reports []childReport
		died := 0
		for k := 0; k < processes; k++ {
			rep, err := spawn(w.name, o, false, o.iters)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				died++
				continue
			}
			absorb(rep)
			reports = append(reports, rep)
		}
		samples := endToEndSamples(reports)
		// A child that died takes every operation it was given with it:
		// as many as a sibling that lived attempted, or one if none did.
		lost := 1
		if len(reports) > 0 {
			lost = reports[0].Attempted
		}
		for ; died > 0; died-- {
			res.Attempted += lost
			res.Failed += lost
			res.Failures = append(res.Failures, fmt.Sprintf("%s: a child process died; its %d operations count as failed", w.name, lost))
		}
		stable := true
		for _, rep := range reports {
			stable = stable && rep.Digest == res.OutputDigest
		}
		res.check(stable, "%s: output_digest differs between processes", w.name)
		res.EndToEnd = map[string]summary{}
		for _, d := range m.EndToEnd {
			s := summarize(d.Unit, samples[d.Name], d.Name == "wall_s")
			res.check(s.Value > 0, "%s: no measurement of %s", w.name, d.Name)
			res.EndToEnd[d.Name] = s
		}
	}

	if o.traced {
		rep, err := spawn(w.name, o, true, 0)
		if err != nil {
			res.check(false, "%s: traced pass: %v", w.name, err)
		} else {
			if o.endToEnd {
				res.check(rep.Digest == res.OutputDigest, "%s: output_digest of the traced pass differs from the end-to-end pass", w.name)
			}
			absorb(rep)
			res.PerLayer = map[string]metricValue{}
			var missing []string
			for _, d := range m.PerLayer {
				v, ok := rep.PerLayer[d.Name]
				if !ok {
					missing = append(missing, d.Name)
				}
				res.PerLayer[d.Name] = metricValue{v, d.Unit}
			}
			res.check(len(missing) == 0 && len(rep.PerLayer) == len(m.PerLayer),
				"%s: measured per-layer metrics are not the declared ones (unmeasured: %v; %d measured, %d declared)",
				w.name, missing, len(rep.PerLayer), len(m.PerLayer))
			if err := writeJSON(filepath.Join(outDir, "spans-"+w.name+".json"), rep.Spans); err != nil {
				res.check(false, "%s: writing spans: %v", w.name, err)
			}
		}
	}

	checkDigests[w.name] = res.CheckDigest
	if w.ref != "" {
		want, seen := checkDigests[w.ref]
		if !seen {
			// Only this workload was asked for: produce the reference
			// output with one untimed iteration of the ref workload.
			rep, err := spawn(w.ref, o, false, 0)
			if err != nil {
				res.check(false, "%s: reference run of %s: %v", w.name, w.ref, err)
			} else {
				count(rep)
				want = rep.CheckDigest
			}
		}
		res.check(want == res.CheckDigest, "%s: rendered output differs from %s (stage %q; empty = all)", w.name, w.ref, w.check)
	}
	return res
}

// endToEndSamples gathers the samples of every end-to-end metric: one
// per process for what a process pays once, one per timed iteration
// for the rest.
func endToEndSamples(reports []childReport) map[string][]float64 {
	s := map[string][]float64{}
	for _, rep := range reports {
		s["setup_s"] = append(s["setup_s"], rep.SetupS)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], rep.PeakRSSMB)
		for _, it := range rep.Timed {
			s["wall_s"] = append(s["wall_s"], it.WallS)
			s["alloc_mb_per_iter"] = append(s["alloc_mb_per_iter"], it.AllocMB)
			s["mallocs_k_per_iter"] = append(s["mallocs_k_per_iter"], it.MallocsK)
		}
	}
	return s
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name, with its
// unit.
func printWorkload(m *manifest, wr workloadResult, res result) {
	fmt.Printf("== %s  (seed %d, GOMAXPROCS %d, %s)\n", wr.Name, res.Seed, res.GOMAXPROCS, res.Go)
	for _, d := range m.EndToEnd {
		if s, ok := wr.EndToEnd[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s median %.4f  min %.4f  max %.4f  n=%d\n",
				d.Name, s.Value, d.Unit, s.Median, s.Min, s.Max, s.N)
		}
	}
	if wr.PaperGapPts > 0 {
		fmt.Printf("  %-34s %14.4f %-6s mean |measured − paper| over +13 %% speed, −30 %% L2 power, +50 %% area\n",
			"paper_gap_pts", wr.PaperGapPts, "pts")
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %s\n", name, wr.PerLayer[name].Value, wr.PerLayer[name].Unit)
	}
	frac := 0.0
	if wr.Attempted > 0 {
		frac = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Printf("  %-34s %14.4f %-6s %d of %d operations (simulation cells + output checks)\n",
		"cells_failed_frac", frac, "ratio", wr.Failed, wr.Attempted)
	fmt.Printf("  %-34s %s\n", "output_digest", wr.OutputDigest)
	for _, f := range wr.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// printContractLine prints a single workload's result as the one-line
// JSON object the benchmark driver reads.
func printContractLine(wr workloadResult) {
	metrics := map[string]metricValue{}
	for name, s := range wr.EndToEnd {
		metrics[name] = metricValue{s.Value, s.Unit}
	}
	for name, v := range wr.PerLayer {
		metrics[name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
