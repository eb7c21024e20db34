package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// parseLine reads a command line the way main does, without the
// process's flag set.
func parseLine(args ...string) (options, error) {
	fs := flag.NewFlagSet("momsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// defaultOptions is what an empty command line selects.
func defaultOptions() options {
	o, err := parseLine()
	if err != nil {
		panic(err)
	}
	return o
}

func TestResolveDefaults(t *testing.T) {
	rc, err := resolve(defaultOptions())
	if err != nil {
		t.Fatalf("resolve(defaults): %v", err)
	}
	if rc.Bench.Name != "mpeg2encode" {
		t.Errorf("bench = %q, want mpeg2encode", rc.Bench.Name)
	}
	if rc.Variant != kernels.MOM3D {
		t.Errorf("variant = %v, want MOM3D", rc.Variant)
	}
	if rc.MemKind != core.MemVectorCache3D {
		t.Errorf("mem kind = %v, want vcache3d", rc.MemKind)
	}
	if rc.Timing.Backend == nil || rc.Timing.Backend.Name() != "fixed" {
		t.Errorf("backend = %v, want fixed", rc.Timing.Backend)
	}
	if rc.Timing.L2Latency != 20 || rc.Timing.MemLatency != 100 {
		t.Errorf("timing = %+v, want L2=20 mem=100", rc.Timing)
	}
}

func TestResolveSDRAM(t *testing.T) {
	o := defaultOptions()
	o.DRAM, o.Mapping, o.Sched = "sdram", "bank", "fcfs"
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(sdram): %v", err)
	}
	if got := rc.Timing.Backend.Name(); got != "sdram(bank,fcfs,open)" {
		t.Errorf("backend = %q, want sdram(bank,fcfs,open)", got)
	}
}

func TestResolveSDRAMKnobs(t *testing.T) {
	o := defaultOptions()
	o.DRAM, o.Prof, o.Channels = "sdram", "hbm", 4
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(sdram knobs): %v", err)
	}
	sd, ok := rc.Timing.Backend.(*dram.SDRAM)
	if !ok {
		t.Fatalf("backend = %T, want *dram.SDRAM", rc.Timing.Backend)
	}
	cfg := sd.Config()
	if cfg.Channels != 4 {
		t.Errorf("knobs not applied: %+v", cfg)
	}
	if cfg.TRCD != dram.PresetHBM.Config().TRCD {
		t.Errorf("hbm profile not applied: tRCD = %d", cfg.TRCD)
	}
}

func TestResolveMSHR(t *testing.T) {
	o := defaultOptions()
	o.MSHRs = 8
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(mshr): %v", err)
	}
	if rc.Timing.MSHRs != 8 {
		t.Errorf("Timing.MSHRs = %d, want 8", rc.Timing.MSHRs)
	}
	// Default stays on the blocking model.
	if rc2, err := resolve(defaultOptions()); err != nil || rc2.Timing.MSHRs != 0 {
		t.Errorf("default Timing.MSHRs = %d (err %v), want 0", rc2.Timing.MSHRs, err)
	}
	// -mshr works on the sdram backend too.
	o = defaultOptions()
	o.DRAM, o.MSHRs = "sdram", 16
	if rc, err = resolve(o); err != nil || rc.Timing.MSHRs != 16 {
		t.Errorf("sdram Timing.MSHRs = %d (err %v), want 16", rc.Timing.MSHRs, err)
	}
}

func TestResolvePrefetch(t *testing.T) {
	o := defaultOptions()
	o.MSHRs, o.PFStreams, o.PFDegree = 16, 8, 2
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(pf): %v", err)
	}
	if rc.Timing.PFStreams != 8 || rc.Timing.PFDegree != 2 || rc.Timing.MSHRs != 16 {
		t.Errorf("prefetch knobs not threaded: %+v", rc.Timing)
	}
	// The degree default is applied by the model layer, not resolve.
	o = defaultOptions()
	o.MSHRs, o.PFStreams = 8, 4
	if rc, err = resolve(o); err != nil || rc.Timing.PFStreams != 4 || rc.Timing.PFDegree != 0 {
		t.Errorf("pf without pfd: %+v (err %v)", rc.Timing, err)
	}
	// Default stays prefetch-off.
	if rc, err = resolve(defaultOptions()); err != nil || rc.Timing.PFStreams != 0 {
		t.Errorf("default Timing.PFStreams = %d (err %v), want 0", rc.Timing.PFStreams, err)
	}
}

func TestResolveRowPolicy(t *testing.T) {
	o := defaultOptions()
	o.DRAM, o.RP = "sdram", "history"
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(rp history): %v", err)
	}
	cfg := rc.Timing.Backend.(*dram.SDRAM).Config()
	if cfg.RowPolicy != dram.RowHistory {
		t.Errorf("row policy not applied: %v", cfg.RowPolicy)
	}
	if got := rc.Timing.Backend.Name(); got != "sdram(line,frfcfs,history)" {
		t.Errorf("backend = %q, want sdram(line,frfcfs,history)", got)
	}
	// Set from Go rather than through the flag, a name no policy has is
	// refused all the same.
	o = defaultOptions()
	o.DRAM, o.RP = "sdram", "timer:77"
	if _, err = resolve(o); err == nil || !strings.Contains(err.Error(), "unknown row policy") {
		t.Errorf("resolve(rp timer:77) = %v, want an unknown row policy", err)
	}
	// The default is the static open page — today's behaviour.
	if rc, err = resolve(defaultOptions()); err != nil || rc.Timing.Backend.Name() != "fixed" {
		t.Errorf("default resolve: %v (err %v)", rc.Timing.Backend, err)
	}
}

func TestResolveObservability(t *testing.T) {
	o := defaultOptions()
	o.Trace, o.StatsJSON, o.TraceBuf = "trace.json", "stats.json", 4096
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(observability): %v", err)
	}
	if rc.Trace != "trace.json" || rc.StatsJSON != "stats.json" || rc.TraceBuf != 4096 {
		t.Errorf("observability outputs not threaded: %+v", rc)
	}
	// -statsjson alone is fine; so is -trace with the default ring.
	o = defaultOptions()
	o.StatsJSON = "stats.json"
	if rc, err = resolve(o); err != nil || rc.StatsJSON != "stats.json" {
		t.Errorf("statsjson alone: %+v (err %v)", rc, err)
	}
	o = defaultOptions()
	o.Trace = "trace.json"
	if rc, err = resolve(o); err != nil || rc.Trace != "trace.json" || rc.TraceBuf != 0 {
		t.Errorf("trace alone: %+v (err %v)", rc, err)
	}
	// The defaults leave both exporters off.
	if rc, err = resolve(defaultOptions()); err != nil || rc.Trace != "" || rc.StatsJSON != "" {
		t.Errorf("default resolve enables an exporter: %+v (err %v)", rc, err)
	}
	// The cycle-attribution report and the interval sampler thread through.
	o = defaultOptions()
	o.CPIStack, o.Sample, o.SampleJSON = true, 500, "ts.json"
	rc, err = resolve(o)
	if err != nil {
		t.Fatalf("resolve(cpistack+sample): %v", err)
	}
	if !rc.CPIStack || rc.Sample != 500 || rc.SampleJSON != "ts.json" {
		t.Errorf("attribution outputs not threaded: %+v", rc)
	}
}

// TestResolveRejectsUnknownValues: each command line is refused, by
// parseArgs or by resolve, with one message naming what is wrong.
func TestResolveRejectsUnknownValues(t *testing.T) {
	cases := []struct {
		name string
		args string
		want string // substring the error must mention
	}{
		{"bench", "-bench quake3", "benchmark"},
		{"isa", "-isa avx512", "ISA"},
		{"mem", "-mem dcache", "memory system"},
		{"dram", "-dram hbm", "dram backend"},
		{"dmap", "-dram sdram -dmap xor", "mapping"},
		{"dsched", "-dram sdram -dsched rr", "scheduler"},
		{"dmap-fixed", "-dmap xor", "-dmap configures the banked controller; it requires -dram sdram"},
		{"dsched-fixed", "-dsched frfcfs", "-dsched configures"},
		{"dprof", "-dram sdram -dprof lpddr", "profile"},
		{"dprof-fixed", "-dprof ddr", "-dprof configures"},
		{"dchan", "-dram sdram -dchan 3", "-dchan / <n>ch: 3 is out of range (want 1..64, a power of two"},
		{"dchan-negative", "-dram sdram -dchan -4", "-dchan / <n>ch"},
		{"mshr-negative", "-mshr -2", "-mshr / mshr<n>"},
		{"mshr-ideal", "-mem ideal -mshr 8", "-mshr"},
		{"pf-negative", "-pf -1", "-pf / pf<n>"},
		{"pf-no-mshr", "-pf 8", "needs -mshr / mshr<n> of at least 2"},
		{"pf-blocking-mshr", "-mshr 1 -pf 8", "needs -mshr / mshr<n> of at least 2"},
		{"pfd-no-pf", "-mshr 8 -pfd 4", "-pfd / pf<n>d<m> needs -pf / pf<n>"},
		{"pf-ideal", "-mem ideal -mshr 8 -pf 8", "-mshr"},
		{"rp-unknown", "-dram sdram -rp lru", "row policy"},
		{"rp-timer", "-dram sdram -rp timer", "unknown row policy"},
		{"rp-timer-zero", "-dram sdram -rp timer:0", "unknown row policy"},
		{"rp-arg-on-open", "-dram sdram -rp open:5", "unknown row policy"},
		{"qos-one-tenant", "-dram sdram -qos", "-qos / qos needs -tenants / tn<n> of at least 2"},
		{"qos-fixed", "-tenants 2 -qos", "-qos configures"},
		{"mlat-sdram", "-dram sdram -mlat 50", "-mlat applies to the fixed backend only"},
		{"va-unknown", "-va best", "placement policy"},
		// Under line interleaving with the profile's two channels every
		// page starts on channel 0, so coloring would scan the whole pool
		// for each page and fall back to first-fit under its own name.
		{"va-color-line", "-dram sdram -va color", "every page starts on channel 0: give a mapping with channel bits above the page, such as -dmap bank"},
		// The flat backend has no channels to color by.
		{"va-color-fixed", "-va color -dram fixed", "has a single channel (-dram fixed, or -dchan 1), so coloring would be first-fit: give -dram sdram"},
		// MOM+3D code loads through the 3D datapath the plain vector
		// cache does not have.
		{"mom3d-vcache", "-isa mom3d -mem vcache", "use -mem vcache3d"},
		{"tenants-zero", "-tenants 0", "-tenants must be 1..256"},
		{"tenants-past-the-request-field", "-tenants 257", "-tenants / tn<n>: 257 is out of range (want 1..256"},
		{"dram-ideal", "-mem ideal -dram fixed", "-mem ideal"},
		{"knob-ideal", "-mem ideal -dram sdram -dmap bank", "-mem ideal"},
		{"tracebuf-negative", "-trace t.json -tracebuf -1", "-tracebuf"},
		{"tracebuf-no-trace", "-tracebuf 4096", "-trace"},
		{"trace-eq-statsjson", "-trace out.json -statsjson out.json", `-trace and -statsjson both write "out.json"; pick distinct files`},
		{"sample-negative", "-sample -1", "-sample"},
		{"sample-no-file", "-sample 1000", "-samplejson"},
		{"samplejson-no-sample", "-samplejson ts.json", "-sample"},
		{"samplejson-eq-trace", "-sample 1000 -samplejson out.json -trace out.json", "-trace and -samplejson both write"},
		{"samplejson-eq-statsjson", "-sample 1000 -samplejson out.json -statsjson out.json", "-statsjson and -samplejson both write"},
		// A profile sharing a path with another output would overwrite it
		// after the report said it was written.
		{"statsjson-eq-cpuprofile", "-bench gsmencode -statsjson x -cpuprofile x", `-statsjson and -cpuprofile both write "x"`},
		{"cpuprofile-eq-memprofile", "-cpuprofile y -memprofile y", `-cpuprofile and -memprofile both write "y"`},
		{"trace-eq-memprofile", "-trace t.json -memprofile t.json", "-trace and -memprofile both write"},
		{"samplejson-eq-cpuprofile", "-sample 1000 -samplejson s.json -cpuprofile s.json", "-samplejson and -cpuprofile both write"},
		// Every run is on the wheel; the per-cycle driver is the tests' oracle.
		{"engine-gone", "-engine wheel", "flag provided but not defined: -engine"},
		// The write-drain, reorder-window and prefetch-queue settings are
		// the profiles' values, no longer flags.
		{"dwq-gone", "-dram sdram -dwq 8", "flag provided but not defined: -dwq"},
		{"pfdecay-gone", "-dram sdram -mshr 8 -pf 4 -pfdecay 200", "flag provided but not defined: -pfdecay"},
		// Every count has an upper bound the model can build: these used
		// to die in NewSDRAM's makeslice or run the host out of memory,
		// and a negative latency used to run and report a faster machine.
		{"dchan-huge", "-dram sdram -dchan 4611686018427387904", "-dchan / <n>ch: 4611686018427387904 is out of range"},
		{"dchan-oom", "-dram sdram -dchan 1073741824", "want 1..64"},
		{"pf-oom", "-mshr 8 -pf 2147483647", "-pf / pf<n>: 2147483647 is out of range (want 1..1024"},
		{"mshr-oom", "-mshr 2147483647", "-mshr / mshr<n>"},
		{"pfd-oom", "-mshr 8 -pf 4 -pfd 2147483647", "-pfd / pf<n>d<m>"},
		{"l2-negative", "-l2 -100", "-l2"},
		{"mlat-negative", "-mlat -1", "-mlat"},
	}
	for _, c := range cases {
		o, err := parseLine(strings.Fields(c.args)...)
		if err == nil {
			_, err = resolve(o)
		}
		if err == nil {
			t.Errorf("%s: %q was accepted", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestOutputsOpenBeforeTheRun: every file a command line names is
// created before anything is simulated. One that cannot be created is
// refused, naming its flag; the others exist, and stop writes the heap
// profile. A profile on a device that refuses its writes is an error
// from stop, naming the file.
func TestOutputsOpenBeforeTheRun(t *testing.T) {
	dir := t.TempDir()
	gone := filepath.Join(dir, "missing")
	const full = "writing /dev/full: write /dev/full: no space left on device"
	for _, c := range []struct{ name, args, want string }{
		{"memprofile on a full device", "-memprofile /dev/full", full},
		{"cpuprofile on a full device", "-cpuprofile /dev/full", full},
		{"memprofile", "-memprofile " + gone + "/m.prof", "-memprofile: open " + gone + "/m.prof: no such file or directory"},
		{"cpuprofile", "-cpuprofile " + gone + "/c.prof", "-cpuprofile: open " + gone + "/c.prof"},
		{"statsjson", "-statsjson " + gone + "/s.json", "-statsjson: open " + gone + "/s.json: no such file or directory"},
		{"trace", "-trace " + gone + "/t.json", "-trace: open " + gone + "/t.json"},
		{"samplejson", "-sample 100 -samplejson " + gone + "/ts.json", "-samplejson: open " + gone + "/ts.json"},
	} {
		o, err := parseLine(strings.Fields(c.args)...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rc, err := resolve(o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stop, err := stats.StartProfiles(rc.CPUProfile, rc.MemProfile, rc.reports()...)
		if err == nil {
			err = stop()
		}
		if err == nil {
			t.Errorf("%s: %q was accepted", c.name, c.args)
		} else if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}

	files := []string{"t.json", "s.json", "ts.json", "c.prof", "m.prof"}
	o, err := parseLine("-trace", filepath.Join(dir, files[0]), "-statsjson", filepath.Join(dir, files[1]),
		"-sample", "100", "-samplejson", filepath.Join(dir, files[2]),
		"-cpuprofile", filepath.Join(dir, files[3]), "-memprofile", filepath.Join(dir, files[4]))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := resolve(o)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := stats.StartProfiles(rc.CPUProfile, rc.MemProfile, rc.reports()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s was not created before the run: %v", f, err)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "m.prof")); err != nil || fi.Size() == 0 {
		t.Errorf("stop wrote no heap profile: %v", err)
	}
}

// TestKnobFlagsAllRegistered: every row of dram.KnobTable is a momsim
// flag with the row's default and help text.
func TestKnobFlagsAllRegistered(t *testing.T) {
	fs := flag.NewFlagSet("momsim", flag.ContinueOnError)
	if _, err := parseArgs(fs, nil); err != nil {
		t.Fatal(err)
	}
	for i := range dram.KnobTable {
		r := &dram.KnobTable[i]
		f := fs.Lookup(r.Flag)
		if f == nil {
			t.Errorf("%s is not a momsim flag", r)
			continue
		}
		if def := f.DefValue; f.Usage != r.Help || def != r.Def && !(r.Def == "" && (def == "0" || def == "false")) {
			t.Errorf("-%s registered with default %q and help %q, want the row's %q and %q", r.Flag, def, f.Usage, r.Def, r.Help)
		}
	}
}

// TestFlagsMatchSpec: flag ≡ spec. For every row and every value worth
// trying (a count's minimum, maximum and an interior value, every name),
// the knobs momsim reads from the command line equal the knobs parsed
// from the spec that command line formats to, and resolve accepts them.
func TestFlagsMatchSpec(t *testing.T) {
	byFlag := map[string]*dram.Knob{}
	for i := range dram.KnobTable {
		byFlag[dram.KnobTable[i].Flag] = &dram.KnobTable[i]
	}
	for i := range dram.KnobTable {
		r := &dram.KnobTable[i]
		vals := strings.Split(r.Names, "|")
		switch {
		case r.Max > 0: // a count; 8 is inside every range and a power of two
			vals = []string{fmt.Sprint(r.Min), "8", fmt.Sprint(r.Max)}
		case r.Names == "": // a switch
			vals = []string{"true"}
		}
		for _, v := range vals {
			// Whatever the row needs rides along, at the least value it
			// needs.
			args := []string{"-dram", "sdram", "-" + r.Flag + "=" + v}
			if r.Flag == "va" && v == "color" {
				args = append(args, "-dmap=bank") // refused on the line mapping
			}
			for k := r; k.Needs != ""; k = byFlag[k.Needs] {
				args = append(args, fmt.Sprintf("-%s=%d", k.Needs, max(k.NeedsMin, 1)))
			}
			o, err := parseLine(args...)
			if err != nil {
				t.Errorf("%v: %v", args, err)
				continue
			}
			spec := o.Selection.Spec(o.DRAM)
			_, knobs, err := dram.ParseSpecFull(spec, o.MemLat)
			if err != nil {
				t.Errorf("%v formats to %q, which does not parse: %v", args, spec, err)
			} else if knobs != o.Knobs {
				t.Errorf("%v reads as %+v but its spec %q as %+v", args, o.Knobs, spec, knobs)
			}
			if _, err := resolve(o); err != nil {
				t.Errorf("%v: %v", args, err)
			}
		}
	}
}
