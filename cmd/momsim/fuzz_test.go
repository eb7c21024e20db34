package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

// FuzzResolve drives momsim's flag resolution with arbitrary values.
// resolve is the single validation funnel between flag.Parse and the
// simulator, so its contract under fuzzing is strict: it must never
// panic, and when it accepts a configuration the result must be
// runnable — a benchmark, a core config and (away from ideal memory) a
// DRAM backend. The checked-in corpus under testdata/fuzz/FuzzResolve
// replays known-interesting combinations as regular test cases.
func FuzzResolve(f *testing.F) {
	add := func(bench, isa, mem, dram, dmap, dsched, dprof, rp string,
		dchan, mshr, pf, pfd int, l2, mlat int64,
		trace, statsjson string, tracebuf, tenants int, qos bool) {
		f.Add(bench, isa, mem, dram, dmap, dsched, dprof, rp,
			dchan, mshr, pf, pfd, l2, mlat,
			trace, statsjson, tracebuf, tenants, qos)
	}
	d := defaultOptions()
	add(d.Bench, d.ISA, d.Mem, d.DRAM, d.Mapping, d.Sched, "ddr", "open",
		0, 0, 0, 0, d.L2Lat, d.MemLat, "", "", 0, d.Tenants, false)
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "hbm", "history",
		4, 16, 8, 4, 20, 100, "t.json", "s.json", 1024, 1, false)
	add("motionsearch", "mom", "vcache", "sdram", "bank", "fcfs", "ddr", "timer:150",
		0, 8, 0, 0, 40, 100, "", "", 0, 1, false) // a row policy that went (the idle timer): rejected
	add("jpegencode", "mmx", "multibanked", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "out.json", 0, 1, false)
	add("mpeg2decode", "mom3d", "ideal", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", 0, 1, false)
	add("quake3", "avx512", "dcache", "hbm", "xor", "rr", "lpddr", "lru",
		3, -5, 1, -1, -20, -100, "x", "x", -7, -4, true)
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "close",
		0, 1, 8, 0, 20, 100, "", "", 0, 1, false) // pf over a blocking file: rejected
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "timer:0",
		0, 16, 8, 0, 20, 100, "", "", 0, 1, false) // ditto
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "open",
		0, 16, 0, 4, 20, 100, "", "", 0, 1, false) // pfd without pf: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", -1, 1, false) // negative tracebuf: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", 4096, 1, false) // tracebuf without trace: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "same.json", "same.json", 0, 1, false) // colliding outputs: rejected
	add("motionsearch", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "ddr", "open",
		0, 8, 4, 0, 20, 100, "", "", 0, 4, true) // the full multi-tenant config: accepted
	add("motionsearch", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", 0, 1, true) // qos with one tenant: rejected
	add("motionsearch", "mom3d", "ideal", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", 0, 4, false) // tenants on ideal memory: rejected
	add("gsmencode", "mom3d", "ideal", "fixed", "line", "frfcfs", "", "open",
		0, 8, 4, 0, 20, 100, "", "", 0, 1, false) // mshr/pf on ideal memory: rejected
	add("gsmencode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 20, 100, "", "", 0, 257, false) // more tenants than a request can name: rejected
	// Counts past what the model can build, and latencies below zero:
	// each used to panic in NewSDRAM, exhaust the host or run. Rejected.
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "open",
		4611686018427387904, 0, 0, 0, 20, 100, "", "", 0, 1, false)
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "open",
		1073741824, 0, 0, 0, 20, 100, "", "", 0, 1, false)
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "open",
		0, 2147483647, 0, 0, 20, 100, "", "", 0, 1, false)
	add("gsmencode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "", "open",
		0, 8, 2147483647, 0, 20, 100, "", "", 0, 1, false)
	add("gsmencode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "", "open",
		0, 0, 0, 0, -100, 100, "", "", 0, 1, false)

	f.Fuzz(func(t *testing.T, bench, isa, mem, kind, dmap, dsched, dprof, rp string,
		dchan, mshr, pf, pfd int, l2, mlat int64,
		traceOut, statsOut string, tracebuf, tenants int, qos bool) {
		rc, err := resolve(options{
			Bench: bench, ISA: isa, Mem: mem, DRAM: kind,
			Selection: dram.Selection{Mapping: dmap, Sched: dsched, Prof: dprof, Knobs: dram.Knobs{
				Channels: dchan, MSHRs: mshr, PFStreams: pf, PFDegree: pfd,
				Tenants: tenants, QoS: qos, RP: rp}},
			L2Lat: l2, MemLat: mlat,
			Trace: traceOut, StatsJSON: statsOut, TraceBuf: tracebuf,
		})
		if err != nil {
			return
		}
		if rc.TraceBuf < 0 {
			t.Fatalf("accepted a negative trace ring capacity: %d", rc.TraceBuf)
		}
		if rc.TraceBuf > 0 && rc.Trace == "" {
			t.Fatal("accepted -tracebuf without -trace")
		}
		if rc.Trace != "" && rc.Trace == rc.StatsJSON {
			t.Fatalf("accepted colliding -trace/-statsjson outputs: %q", rc.Trace)
		}
		if rc.Bench.Name == "" {
			t.Fatal("accepted configuration has no benchmark")
		}
		if rc.Core.FetchWidth <= 0 {
			t.Fatalf("accepted configuration has no core: %+v", rc.Core)
		}
		if rc.Timing.Backend == nil {
			t.Fatal("accepted configuration has no DRAM backend")
		}
		if rc.Timing.L2Latency < 0 || rc.Timing.MemLatency < 0 {
			t.Fatalf("accepted a negative latency: %+v", rc.Timing)
		}
		if rc.Timing.PFStreams > 0 && rc.Timing.MSHRs < 2 {
			t.Fatalf("accepted a prefetcher over a blocking pipeline: %+v", rc.Timing)
		}
		if rc.MemKind == core.MemIdeal && (rc.Timing.MSHRs != 0 || rc.Timing.PFStreams != 0) {
			t.Fatalf("accepted mshr/pf with ideal memory: %+v", rc.Timing)
		}
		if rc.Tenants < 1 || rc.Tenants > dram.MaxTenants {
			t.Fatalf("accepted a tenant count outside 1..%d: %d", dram.MaxTenants, rc.Tenants)
		}
		if rc.QoS && rc.Tenants < 2 {
			t.Fatal("accepted -qos without at least 2 tenants")
		}
		if rc.Tenants > 1 && rc.MemKind == core.MemIdeal {
			t.Fatal("accepted multiple tenants on ideal memory (nothing shared to contend on)")
		}
	})
}
