// Command momsim runs one benchmark through the cycle simulator in one
// configuration and prints the timing, memory and trace statistics.
//
// Usage:
//
//	momsim -bench mpeg2encode -isa mom3d -mem vcache3d -l2 20 -dram sdram
//
// ISA variants: mmx, mom, mom3d. Memory systems: ideal, multibanked,
// vcache, vcache3d. DRAM backends: fixed (flat latency), sdram (banked
// controller; -dmap picks the address mapping, -dsched the scheduler,
// -dprof the timing profile (ddr/hbm), and -dchan/-dwq/-dwql/-dwqi/
// -dwin override the channel count, write-queue drain threshold, drain
// low watermark, idle-drain gap and FR-FCFS reorder window). -rp picks
// the per-bank row policy (open, close, timer[:<idle>], history — the
// 2-bit live/dead predictor). -mshr N enables the non-blocking memory
// pipeline: N miss-status holding registers decouple instruction issue
// from memory completion (0 or 1 = the blocking model, which has no
// file; 0 is the default). -pf N adds a
// stream prefetcher over the MSHR file (N stream-table entries; -pfd
// picks how many lines each stream keeps in flight): predicted L2
// lines join the lazy MSHR batch as prefetch entries that never stall
// the demand pipeline — the channel scheduler services demand reads
// first, and -pfq caps how many speculative reads may sit in one
// channel's read queue. These backend flags are the rows of
// dram.KnobTable, which also holds each one's legal range and the spec
// token it formats to; a value outside its range is a usage error.
//
// Multi-tenant traffic: -tenants M runs M concurrent instances of the
// kernel through ONE shared L2 + MSHR file + DRAM backend (each tenant
// keeps its own core, L1 and vector subsystem), stepping the cores in
// per-cycle lockstep and reporting per-tenant IPC and DRAM read
// latency. -qos turns on per-tenant credit scheduling in the sdram
// channel scheduler so a streaming tenant cannot starve a
// latency-sensitive one; -pfdecay N lets the demand-first latch decay
// after N deferral-free cycles so phased workloads recover full
// FR-FCFS standing for speculative reads.
//
// Address translation: -va <policy> gives every requestor its own
// virtual address space over one shared physical pool — multi-level
// page tables walked on TLB misses (a private L1 TLB per requestor
// over a shared L2 TLB), with the miss and walk latency charged as
// issue-stage stalls. The policy names how the buddy allocator places
// pages: first (first-fit), color (round-robin a tenant's pages across
// DRAM channels) or colo (pack each tenant contiguously for row-hit
// locality). With -tenants the spaces replace the address-window
// rebasing, so isolation comes from the page tables themselves.
//
// Observability: -statsjson <file> dumps every registered counter and
// histogram as deterministic JSON (the internal/stats registry
// snapshot); -trace <file> writes a cycle-stamped Chrome trace-event
// JSON covering DRAM request issue/activate/column/complete, MSHR
// alloc/merge/fill, prefetch train/fire/drop, row-policy closes — and
// the core pipeline itself: every memory instruction renders as an
// issue→commit span (tid = ROB slot, pid = tenant), with causal flow
// arrows chaining it to the TLB walk that stalled it and to each MSHR
// entry it allocated through to the DRAM fill (load it in
// chrome://tracing or Perfetto; -tracebuf sizes the event ring, most
// recent events win — the ring's overwrite count is reported and
// registered as trace.dropped). -cpistack prints the CPI stack: every
// core cycle attributed to exactly one stall reason (busy, issue,
// exec, dep, mshr_full, store_buf, tlb_walk, dram_wait, qos_yield,
// frontend, drain — the buckets sum to the cycle count exactly, on
// both engines). -sample N -samplejson <file> records a time series:
// every N cycles the stats registry is snapshotted and the
// per-interval counter deltas (plus absolute gauges) append one row to
// a deterministic JSON document.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/policy"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
)

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}
	rc, err := resolve(o)
	if err != nil {
		fail("%v", err)
	}

	stopProfiles, err := stats.StartProfiles(rc.CPUProfile, rc.MemProfile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProfiles()

	var rec trace.Recorder
	var digest []byte
	stream, tst := rec.Record(func(sink trace.Sink) { digest = rc.Bench.Run(rc.Variant, sink) })
	if rc.Verify {
		ref := rc.Bench.Reference()
		if string(digest) != string(ref) {
			fail("kernel output does not match the scalar reference")
		}
	}

	if rc.Tenants > 1 {
		runTenants(rc, stream, tst)
		return
	}

	ms := core.NewMemSystem(rc.MemKind, rc.Timing, rc.Core.Lanes, rc.Variant == kernels.MMX && rc.MemKind != core.MemIdeal)
	sim := core.NewStreamSim(rc.Core, ms, stream, 0)
	var tracer *stats.Tracer
	if rc.Trace != "" {
		tracer = stats.NewTracer(rc.TraceBuf)
		ms.AttachTracer(tracer)
		sim.SetTracer(tracer, 0)
	}
	// The registry is wired before the run: its counters are closures
	// over the live structs, so the end-of-run snapshot is identical to
	// the old post-run registration — and the sampler can read deltas
	// mid-flight.
	reg := stats.NewRegistry()
	sim.StatsRef().Register(reg)
	ms.Register(reg)
	if tracer != nil {
		reg.Gauge("trace.dropped", func() int64 { return int64(tracer.Dropped()) })
	}
	var sampler *stats.Sampler
	if rc.Sample > 0 {
		sampler = stats.NewSampler(reg, rc.Sample)
	}

	start := time.Now()
	st := runSim(sim, rc.Engine, sampler)
	ms.Drain()
	wall := time.Since(start)

	if rc.MemKind == core.MemIdeal {
		fmt.Printf("benchmark:   %s (%s, %s)\n", rc.Bench.Name, rc.Variant, rc.MemKind)
	} else {
		fmt.Printf("benchmark:   %s (%s, %s, L2=%d cycles, dram=%s)\n",
			rc.Bench.Name, rc.Variant, rc.MemKind, rc.Timing.L2Latency, rc.Timing.Backend.Name())
	}
	fmt.Printf("instructions: %d  cycles: %d  IPC: %.3f\n", st.Committed, st.Cycles, st.IPC())
	fmt.Printf("engine:      %s, host %.3fs, %s simulated cycles/s\n",
		rc.Engine, wall.Seconds(), fmtCPS(st.Cycles, wall))
	if rc.Verify {
		fmt.Println("output verified against the scalar reference")
	}
	fmt.Println()
	fmt.Print(tst.String())
	fmt.Println()
	vs := ms.VM.Stats()
	fmt.Printf("vector memory: %d instructions, %d accesses, %d words, %d misses\n",
		vs.Instructions, vs.Accesses, vs.Words, vs.Misses)
	if vs.Accesses > 0 {
		fmt.Printf("effective bandwidth: %.2f words/access\n", vs.EffectiveBandwidth())
	}
	if vs.Conflicts > 0 {
		fmt.Printf("bank conflicts: %d\n", vs.Conflicts)
	}
	if vs.Invalidates > 0 {
		fmt.Printf("L1 coherence invalidations: %d\n", vs.Invalidates)
	}
	fmt.Printf("L2 activity: %d accesses (%d from scalar misses)\n", ms.L2Activity(), ms.ScalarL2Accesses)
	fmt.Printf("forwarded loads: %d\n", st.Forwarded)
	if f := ms.MSHR(); f != nil {
		fs := f.Stats()
		fmt.Printf("mshr file (%d entries): %d primary misses, %d merges, MLP %.2f (max %d)\n",
			f.Cap(), fs.Allocs, fs.Merges, fs.MLP(), fs.OccMax)
		fmt.Printf("mshr batches: %d flushes, avg %.2f requests spanning %.2f instructions (max %d); %d full stalls (%d cycles)\n",
			fs.Flushes, fs.AvgBatch(), fs.AvgSpan(), fs.SpanMax, fs.FullStalls, fs.StallCycles)
		if fs.Fill.Count() > 0 {
			fmt.Printf("mshr miss-to-fill latency: %s\n", fs.Fill)
		}
		fmt.Printf("early retirement: %d instructions graduated with misses in flight, %d store-buffer stalls\n",
			st.EarlyRetired, st.StallSB)
	}
	if p := ms.Prefetcher(); p != nil {
		ps := ms.PrefetchStats()
		pc := p.Config()
		fmt.Printf("prefetcher (%d streams, degree %d): %d trains, %d streams tracked, %d lines issued (%d filtered, %d dropped mshr-full, %d dropped wq-full)\n",
			pc.Streams, pc.Degree, ps.Trains, ps.Streams, ps.Issued, ps.Filtered, ps.DroppedMSHR, ps.DroppedWQ)
		fmt.Printf("prefetch outcome: %d hits, %d late, %d useless, accuracy %.2f\n",
			ps.Hits, ps.Late, ps.Useless, ps.Accuracy())
	}
	// Drain any posted writes so the report accounts for all traffic.
	if sd, ok := ms.DRAM().(*dram.SDRAM); ok {
		sd.Flush()
	}
	if ds := ms.DRAM().Stats(); ds.Accesses > 0 {
		fmt.Printf("dram (%s): %d requests, %.2f bytes/cycle\n",
			ms.DRAM().Name(), ds.Accesses, ds.AchievedBandwidth())
		if ds.ReadWait.Count() > 0 {
			fmt.Printf("dram read queue-wait:   %s\n", ds.ReadWait)
			fmt.Printf("dram read service time: %s\n", ds.ReadService)
		}
		// Row-buffer and queue metrics only exist on the banked model.
		if sd, ok := ms.DRAM().(*dram.SDRAM); ok {
			fmt.Printf("dram rows: hit rate %.3f (%d hit / %d miss / %d conflict), %d refreshes\n",
				ds.RowHitRate(), ds.RowHits, ds.RowMisses, ds.RowConflicts, ds.Refreshes)
			if cfg := sd.Config(); cfg.RowPolicy != (policy.Spec{}) || ds.RowClosedEarly > 0 {
				fmt.Printf("dram row policy (%s): %d closed early, %d reopened, %d predictor flips\n",
					cfg.RowPolicy, ds.RowClosedEarly, ds.RowReopened, ds.PredictorFlips)
			}
			fmt.Printf("dram queue: avg %.2f (max %d), %d stall cycles, bank-level parallelism %.2f, bus utilization %.2f\n",
				ds.AvgQueueOccupancy(), ds.QueueMax, ds.StallCycles, ds.BankLevelParallelism(), ds.BusUtilization())
			fmt.Printf("dram batches: %d posted writes (%d drains, %d partial, %d opportunistic), %d window promotions (row-hit or demand-first)\n",
				ds.Writes, ds.WriteDrains, ds.PartialDrains, ds.OppDrains, ds.Reordered)
			if ds.PrefetchReads > 0 {
				fmt.Printf("dram prefetch reads: %d (%d deferred by the pfq%d cap)\n",
					ds.PrefetchReads, ds.PrefetchDeferred, sd.Config().PFQCap)
			}
			if ds.WriteReadStall > 0 {
				fmt.Printf("dram write-induced read stall: %d bus cycles\n", ds.WriteReadStall)
			}
		}
	}
	if sp := ms.Tim.VA; sp != nil {
		ss := sp.Stats()
		vts, vws := sp.VM().TLBStats(), sp.VM().WalkStats()
		fmt.Printf("vm (%s placement): %d pages mapped, L1 TLB %d hit / %d miss, L2 TLB %d hit / %d miss, %d walks (%d coalesced), %d demand faults\n",
			sp.VM().Config().Policy, ss.PagesMapped, ss.L1Hits, ss.L1Misses,
			vts.L2Hits, vts.L2Misses, vws.Walks, vws.Coalesced, ss.Faults)
		if vws.Latency.Count() > 0 {
			fmt.Printf("vm walk latency: %s\n", vws.Latency)
		}
	}
	if rc.MemKind != core.MemIdeal {
		bd := power.Estimate(power.DefaultParams(), st.Cycles, vs, ms.ScalarL2Accesses, tst.D3MoveElems)
		fmt.Printf("memory subsystem power: %.2f W (L2 %.2f, 3D RF %.3f)\n", bd.Total(), bd.L2Watts, bd.D3Watts)
	}
	if st.Mispredicts > 0 {
		fmt.Printf("branch mispredicts: %d\n", st.Mispredicts)
	}
	if rc.CPIStack {
		printCPIStack("", st)
	}

	if rc.StatsJSON != "" {
		registerHost(reg, st.Cycles, wall)
		writeStatsJSON(rc.StatsJSON, reg)
	}
	if sampler != nil {
		writeSampleJSON(rc.SampleJSON, sampler)
	}
	if tracer != nil {
		writeTraceJSON(rc.Trace, tracer)
	}
}

// runSim drives one simulator to completion under the chosen engine,
// sampling the registry at every interval boundary the engine crosses
// (the wheel can land past a boundary; the row is stamped with the
// cycle actually reached).
func runSim(sim *core.Sim, mode engine.Mode, sampler *stats.Sampler) *core.Stats {
	var next int64
	if sampler != nil {
		next = sampler.Interval()
	}
	for sim.Running() {
		if mode == engine.Wheel {
			sim.Advance()
		} else {
			sim.Step()
		}
		if sampler != nil && sim.Now() >= next {
			sampler.Sample(sim.Now())
			for next <= sim.Now() {
				next += sampler.Interval()
			}
		}
	}
	return sim.Finish()
}

// printCPIStack renders the cycle-attribution report: every bucket with
// its share of the run, and the conservation line the stack guarantees.
// indent prefixes each line for the per-tenant report.
func printCPIStack(indent string, st *core.Stats) {
	c := &st.CPI
	fmt.Printf("%scpi stack: %d cycles attributed (sum %d)\n", indent, st.Cycles, c.Sum())
	rows := []struct {
		name string
		n    uint64
	}{
		{"busy", c.Busy}, {"issue", c.Issue}, {"exec", c.Exec}, {"dep", c.Dep},
		{"mshr_full", c.MSHRFull}, {"store_buf", c.StoreBuf}, {"tlb_walk", c.TLBWalk},
		{"dram_wait", c.DRAMWait}, {"qos_yield", c.QosYield},
		{"frontend", c.Frontend}, {"drain", c.Drain},
	}
	for _, r := range rows {
		if r.n == 0 {
			continue
		}
		fmt.Printf("%s  %-10s %12d  %5.1f%%\n", indent, r.name, r.n,
			100*float64(r.n)/float64(st.Cycles))
	}
}

// fmtCPS renders simulated-cycles-per-host-second for the summary line.
func fmtCPS(cycles int64, wall time.Duration) string {
	if wall <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(cycles)/wall.Seconds())
}

// registerHost publishes host-performance figures — wall-clock
// nanoseconds of the simulation loop and simulated cycles per host
// second — under host.* so sweep tooling can read engine throughput
// straight out of the stats snapshot.
func registerHost(reg *stats.Registry, cycles int64, wall time.Duration) {
	ns := wall.Nanoseconds()
	cps := int64(0)
	if ns > 0 {
		cps = int64(float64(cycles) / wall.Seconds())
	}
	reg.Gauge("host.wall_ns", func() int64 { return ns })
	reg.Gauge("host.sim_cycles_per_sec", func() int64 { return cps })
}

// runTenants is the multi-requestor path: rc.Tenants instances of the
// kernel trace contend for one shared memory system, stepped in
// per-cycle lockstep by the tenant group.
func runTenants(rc runConfig, stream *trace.Stream, tst *trace.Stats) {
	streams := make([]*trace.Stream, rc.Tenants)
	for i := range streams {
		streams[i] = stream
	}
	g := tenant.New(tenant.Options{
		Core: rc.Core, Kind: rc.MemKind, Tim: rc.Timing, Lanes: rc.Core.Lanes,
		BankL1:  rc.Variant == kernels.MMX && rc.MemKind != core.MemIdeal,
		Streams: streams, Engine: rc.Engine, VM: rc.VM,
	})
	var tracer *stats.Tracer
	if rc.Trace != "" {
		tracer = stats.NewTracer(rc.TraceBuf)
		g.AttachTracer(tracer)
	}
	reg := stats.NewRegistry()
	g.Register(reg)
	if tracer != nil {
		reg.Gauge("trace.dropped", func() int64 { return int64(tracer.Dropped()) })
	}
	var sampler *stats.Sampler
	if rc.Sample > 0 {
		sampler = stats.NewSampler(reg, rc.Sample)
	}
	start := time.Now()
	if sampler != nil {
		g.RunSampled(sampler)
	} else {
		g.Run()
	}
	wall := time.Since(start)
	// The group runs in lockstep, so the longest tenant's cycle count is
	// the simulated time the host paid for.
	var cycles int64
	for i := 0; i < g.N(); i++ {
		cycles = max(cycles, g.Stats(i).Cycles)
	}

	qosTag := ""
	if rc.QoS {
		qosTag = ", qos"
	}
	fmt.Printf("benchmark:   %s (%s, %s, dram=%s, %d tenants%s)\n",
		rc.Bench.Name, rc.Variant, rc.MemKind, rc.Timing.Backend.Name(), g.N(), qosTag)
	fmt.Printf("engine:      %s, host %.3fs, %s simulated cycles/s\n",
		rc.Engine, wall.Seconds(), fmtCPS(cycles, wall))
	for i := 0; i < g.N(); i++ {
		st := g.Stats(i)
		fmt.Printf("tenant %d: %d instructions, %d cycles, IPC %.3f\n",
			i, st.Committed, st.Cycles, st.IPC())
		if ts := g.TenantStatsOf(i); ts != nil {
			fmt.Printf("  dram: %d reads (%d prefetch), %d writes, %d bytes, %d qos-deferred\n",
				ts.Reads, ts.PrefetchReads, ts.Writes, ts.Bytes, ts.QoSDeferred)
			if ts.ReadLatency.Count() > 0 {
				fmt.Printf("  dram read latency: %s\n", ts.ReadLatency)
			}
		}
		if sp := g.Mem(i).Tim.VA; sp != nil {
			ss := sp.Stats()
			fmt.Printf("  vm: %d pages mapped, L1 TLB %d hit / %d miss, %d demand faults\n",
				ss.PagesMapped, ss.L1Hits, ss.L1Misses, ss.Faults)
		}
		if rc.CPIStack {
			printCPIStack("  ", st)
		}
	}
	fmt.Println()
	fmt.Print(tst.String())
	// Drain any posted writes so the shared totals account for all
	// traffic every tenant generated.
	if sd, ok := rc.Timing.Backend.(*dram.SDRAM); ok {
		sd.Flush()
	}
	if ds := rc.Timing.Backend.Stats(); ds.Accesses > 0 {
		fmt.Printf("\ndram (%s, shared): %d requests, %.2f bytes/cycle\n",
			rc.Timing.Backend.Name(), ds.Accesses, ds.AchievedBandwidth())
		if ds.QoSDeferred > 0 || rc.QoS {
			fmt.Printf("dram qos: %d reads deferred past a tenant's credit\n", ds.QoSDeferred)
		}
		if ds.DemandFirstLapses > 0 {
			fmt.Printf("dram demand-first latch: %d decay lapses\n", ds.DemandFirstLapses)
		}
	}
	if rc.VM != nil {
		vts, vws := rc.VM.TLBStats(), rc.VM.WalkStats()
		fmt.Printf("\nvm (%s placement, shared): L2 TLB %d hit / %d miss, %d walks (%d coalesced), %d free pages\n",
			rc.VM.Config().Policy, vts.L2Hits, vts.L2Misses, vws.Walks, vws.Coalesced, rc.VM.FreePages())
	}

	if rc.StatsJSON != "" {
		registerHost(reg, cycles, wall)
		writeStatsJSON(rc.StatsJSON, reg)
	}
	if sampler != nil {
		writeSampleJSON(rc.SampleJSON, sampler)
	}
	if tracer != nil {
		writeTraceJSON(rc.Trace, tracer)
	}
}

// writeStatsJSON dumps the registry snapshot; shared by the single- and
// multi-tenant paths.
func writeStatsJSON(path string, reg *stats.Registry) {
	fh, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := reg.Snapshot().WriteJSON(fh); err != nil {
		fail("writing %s: %v", path, err)
	}
	if err := fh.Close(); err != nil {
		fail("writing %s: %v", path, err)
	}
	fmt.Printf("stats: wrote %d registered stats to %s\n", len(reg.Names()), path)
}

// writeTraceJSON dumps the tracer ring as Chrome trace-event JSON.
func writeTraceJSON(path string, tracer *stats.Tracer) {
	fh, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := tracer.WriteChromeJSON(fh); err != nil {
		fail("writing %s: %v", path, err)
	}
	if err := fh.Close(); err != nil {
		fail("writing %s: %v", path, err)
	}
	fmt.Printf("trace: wrote %d events to %s (%d emitted, %d dropped by the ring)\n",
		tracer.Len(), path, tracer.Total(), tracer.Dropped())
	if d := tracer.Dropped(); d > 0 {
		fmt.Printf("warning: the trace ring overwrote %d events (oldest first); raise -tracebuf to keep the whole run\n", d)
	}
}

// writeSampleJSON dumps the interval time series recorded by -sample.
func writeSampleJSON(path string, sampler *stats.Sampler) {
	fh, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := sampler.WriteJSON(fh); err != nil {
		fail("writing %s: %v", path, err)
	}
	if err := fh.Close(); err != nil {
		fail("writing %s: %v", path, err)
	}
	fmt.Printf("samples: wrote %d intervals (every %d cycles) to %s\n",
		len(sampler.Rows()), sampler.Interval(), path)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "momsim: "+format+"\n", args...)
	os.Exit(1)
}
