package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/policy"
	"repro/internal/kernels"
)

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
	o.DRAM, o.DMap, o.DSched = "sdram", "bank", "fcfs"
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
	o.DRAM, o.DProf, o.DChan, o.DWQ, o.DWin = "sdram", "hbm", 4, 6, 16
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(sdram knobs): %v", err)
	}
	sd, ok := rc.Timing.Backend.(*dram.SDRAM)
	if !ok {
		t.Fatalf("backend = %T, want *dram.SDRAM", rc.Timing.Backend)
	}
	cfg := sd.Config()
	if cfg.Channels != 4 || cfg.WQDrain != 6 || cfg.ReorderWindow != 16 {
		t.Errorf("knobs not applied: %+v", cfg)
	}
	if cfg.TRCD != dram.PresetHBM.Config().TRCD {
		t.Errorf("hbm profile not applied: tRCD = %d", cfg.TRCD)
	}
}

func TestResolveMSHR(t *testing.T) {
	o := defaultOptions()
	o.MSHR = 8
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
	o.DRAM, o.MSHR = "sdram", 16
	if rc, err = resolve(o); err != nil || rc.Timing.MSHRs != 16 {
		t.Errorf("sdram Timing.MSHRs = %d (err %v), want 16", rc.Timing.MSHRs, err)
	}
}

func TestResolvePrefetch(t *testing.T) {
	o := defaultOptions()
	o.MSHR, o.PF, o.PFD = 16, 8, 2
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(pf): %v", err)
	}
	if rc.Timing.PFStreams != 8 || rc.Timing.PFDegree != 2 || rc.Timing.MSHRs != 16 {
		t.Errorf("prefetch knobs not threaded: %+v", rc.Timing)
	}
	// The degree default is applied by the model layer, not resolve.
	o = defaultOptions()
	o.MSHR, o.PF = 8, 4
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
	if cfg.RowPolicy.Kind != policy.History {
		t.Errorf("row policy not applied: %+v", cfg.RowPolicy)
	}
	if got := rc.Timing.Backend.Name(); got != "sdram(line,frfcfs,history)" {
		t.Errorf("backend = %q, want sdram(line,frfcfs,history)", got)
	}
	// The timer takes its idle gap through the same flag.
	o = defaultOptions()
	o.DRAM, o.RP = "sdram", "timer:77"
	if rc, err = resolve(o); err != nil {
		t.Fatalf("resolve(rp timer:77): %v", err)
	}
	cfg = rc.Timing.Backend.(*dram.SDRAM).Config()
	if cfg.RowPolicy.Kind != policy.Timer || cfg.RowPolicy.Idle != 77 {
		t.Errorf("timer policy not applied: %+v", cfg.RowPolicy)
	}
	// The default is the static open page — today's behaviour.
	if rc, err = resolve(defaultOptions()); err != nil || rc.Timing.Backend.Name() != "fixed" {
		t.Errorf("default resolve: %v (err %v)", rc.Timing.Backend, err)
	}
}

func TestResolvePrefetchQueueCap(t *testing.T) {
	o := defaultOptions()
	o.DRAM, o.MSHR, o.PF, o.PFQ = "sdram", 16, 8, 4
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(pfq): %v", err)
	}
	cfg := rc.Timing.Backend.(*dram.SDRAM).Config()
	if cfg.PFQCap != 4 {
		t.Errorf("pfq cap not applied: %+v", cfg)
	}
	// Unset, the controller defaults to half the read queue.
	o = defaultOptions()
	o.DRAM = "sdram"
	if rc, err = resolve(o); err != nil {
		t.Fatalf("resolve(sdram): %v", err)
	}
	if cfg := rc.Timing.Backend.(*dram.SDRAM).Config(); cfg.PFQCap != cfg.QueueDepth/2 {
		t.Errorf("pfq default = %d, want %d", cfg.PFQCap, cfg.QueueDepth/2)
	}
}

func TestResolveWriteDrainKnobs(t *testing.T) {
	o := defaultOptions()
	o.DRAM, o.DWQ, o.DWQL, o.DWQI = "sdram", 8, 2, 50
	rc, err := resolve(o)
	if err != nil {
		t.Fatalf("resolve(write-drain knobs): %v", err)
	}
	cfg := rc.Timing.Backend.(*dram.SDRAM).Config()
	if cfg.WQDrain != 8 || cfg.WQLow != 2 || cfg.WQIdle != 50 {
		t.Errorf("write-drain knobs not applied: %+v", cfg)
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

func TestResolveRejectsUnknownValues(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string // substring the error must mention
	}{
		{"bench", func(o *options) { o.Bench = "quake3" }, "benchmark"},
		{"isa", func(o *options) { o.ISA = "avx512" }, "ISA"},
		{"mem", func(o *options) { o.Mem = "dcache" }, "memory system"},
		{"dram", func(o *options) { o.DRAM = "hbm" }, "dram backend"},
		{"dmap", func(o *options) { o.DRAM = "sdram"; o.DMap = "xor" }, "mapping"},
		{"dsched", func(o *options) { o.DRAM = "sdram"; o.DSched = "rr" }, "scheduler"},
		{"dmap-fixed", func(o *options) { o.DMap = "xor" }, "mapping"},
		{"dsched-fixed", func(o *options) { o.DSched = "rr" }, "scheduler"},
		{"dprof", func(o *options) { o.DRAM = "sdram"; o.DProf = "lpddr" }, "profile"},
		{"dprof-fixed", func(o *options) { o.DProf = "lpddr" }, "profile"},
		{"dchan", func(o *options) { o.DRAM = "sdram"; o.DChan = 3 }, "channel"},
		{"dchan-negative", func(o *options) { o.DRAM = "sdram"; o.DChan = -4 }, "knobs"},
		{"dwin-negative", func(o *options) { o.DRAM = "sdram"; o.DWin = -1 }, "knobs"},
		{"mshr-negative", func(o *options) { o.MSHR = -2 }, "knobs"},
		{"mshr-ideal", func(o *options) { o.Mem = "ideal"; o.MSHR = 8 }, "-mshr"},
		{"pf-negative", func(o *options) { o.PF = -1 }, "knobs"},
		{"pf-no-mshr", func(o *options) { o.PF = 8 }, "mshr"},
		{"pf-blocking-mshr", func(o *options) { o.MSHR = 1; o.PF = 8 }, "mshr"},
		{"pfd-no-pf", func(o *options) { o.MSHR = 8; o.PFD = 4 }, "stream count"},
		{"pf-ideal", func(o *options) { o.Mem = "ideal"; o.MSHR = 8; o.PF = 8 }, "-mshr"},
		{"dwql-above-drain", func(o *options) { o.DRAM = "sdram"; o.DWQ = 4; o.DWQL = 6 }, "watermark"},
		{"rp-unknown", func(o *options) { o.DRAM = "sdram"; o.RP = "lru" }, "row policy"},
		{"rp-timer-zero", func(o *options) { o.DRAM = "sdram"; o.RP = "timer:0" }, "idle gap"},
		{"rp-arg-on-open", func(o *options) { o.DRAM = "sdram"; o.RP = "open:5" }, "parameter"},
		{"pfq-no-pf", func(o *options) { o.DRAM = "sdram"; o.MSHR = 8; o.PFQ = 4 }, "stream count"},
		{"pfq-negative", func(o *options) { o.DRAM = "sdram"; o.MSHR = 8; o.PF = 4; o.PFQ = -1 }, "knobs"},
		{"tenants-zero", func(o *options) { o.Tenants = 0 }, "-tenants must be 1..256"},
		{"tenants-past-the-request-field", func(o *options) { o.Tenants = 257 }, "-tenants must be 1..256"},
		{"tracebuf-negative", func(o *options) { o.Trace = "t.json"; o.TraceBuf = -1 }, "-tracebuf"},
		{"tracebuf-no-trace", func(o *options) { o.TraceBuf = 4096 }, "-trace"},
		{"trace-eq-statsjson", func(o *options) { o.Trace = "out.json"; o.StatsJSON = "out.json" }, "distinct"},
		{"sample-negative", func(o *options) { o.Sample = -1 }, "-sample"},
		{"sample-no-file", func(o *options) { o.Sample = 1000 }, "-samplejson"},
		{"samplejson-no-sample", func(o *options) { o.SampleJSON = "ts.json" }, "-sample"},
		{"samplejson-eq-trace", func(o *options) {
			o.Sample, o.SampleJSON, o.Trace = 1000, "out.json", "out.json"
		}, "distinct"},
		{"samplejson-eq-statsjson", func(o *options) {
			o.Sample, o.SampleJSON, o.StatsJSON = 1000, "out.json", "out.json"
		}, "distinct"},
	}
	for _, c := range cases {
		o := defaultOptions()
		c.mut(&o)
		_, err := resolve(o)
		if err == nil {
			t.Errorf("%s: resolve accepted an unknown value", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
