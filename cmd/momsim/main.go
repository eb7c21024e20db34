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
// -dprof the timing profile (ddr/hbm), whose write-drain and
// reorder-window settings it keeps, and -dchan overrides the channel
// count). -rp picks the per-bank row policy (open, close,
// timer[:<idle>], history — the 2-bit live/dead predictor). -mshr N
// enables the non-blocking memory pipeline: N miss-status holding
// registers decouple instruction issue from memory completion (0 or 1
// = the blocking model, which has no file; 0 is the default). -pf N
// adds a stream prefetcher over the MSHR file (N stream-table entries;
// -pfd picks how many lines each stream keeps in flight): predicted L2
// lines join the lazy MSHR batch as prefetch entries that never stall
// the demand pipeline — the channel scheduler services demand reads
// first, and speculative reads hold at most half of one channel's read
// queue. These backend flags are the rows of dram.KnobTable, which also
// holds each one's legal range and the spec token it formats to; a
// value outside its range is a usage error.
//
// Multi-tenant traffic: -tenants M runs M concurrent instances of the
// kernel through ONE shared L2 + MSHR file + DRAM backend (each tenant
// keeps its own core, L1 and vector subsystem), stepping the cores in
// tenant order on one shared clock — each only at the cycles it has
// something to do — and reporting per-tenant IPC and DRAM read
// latency. Every run is a tenant.Group on the event-wheel engine — a
// solo run (-tenants 1, the default) is a group of one — so there is
// one construction, one drive loop and one end-of-run drain; only the
// report differs. -qos turns on per-tenant credit scheduling in the sdram
// channel scheduler so a streaming tenant cannot starve a
// latency-sensitive one.
//
// Address translation: -va <policy> gives every requestor its own
// virtual address space over one shared physical pool — multi-level
// page tables walked on TLB misses (a private L1 TLB per requestor
// over a shared L2 TLB), with the miss and walk latency charged as
// issue-stage stalls. Pages are claimed from the pool on first touch
// and never freed; the policy names where each claim lands: first
// (the lowest free page), color (round-robin a tenant's pages across
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
// frontend, drain — the buckets sum to the cycle count exactly).
// -sample N -samplejson <file> records a time series: at every
// multiple of N cycles the stats registry is snapshotted and the
// per-interval counter deltas (plus absolute gauges) append one row to
// a deterministic JSON document.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	stop, err := stats.StartProfiles(rc.CPUProfile, rc.MemProfile, rc.reports()...)
	if err != nil {
		fail("%v", err)
	}
	if err := run(os.Stdout, rc); err != nil {
		fail("%v", err)
	}
	if err := stop(); err != nil {
		fail("%v", err)
	}
}

// run simulates the machine rc describes — rc.Tenants instances of the
// kernel trace as one tenant group, a group of one for a solo run — and
// writes the report to w and the files rc names.
func run(w io.Writer, rc runConfig) error {
	var rec trace.Recorder
	var digest []byte
	stream, tst := rec.Record(func(sink trace.Sink) { digest = rc.Bench.Run(rc.Variant, sink) })
	if rc.Verify && string(digest) != string(rc.Bench.Reference()) {
		return errors.New("kernel output does not match the scalar reference")
	}
	streams := make([]*trace.Stream, rc.Tenants)
	for i := range streams {
		streams[i] = stream
	}
	g := tenant.New(tenant.Options{
		Core: rc.Core, Kind: rc.MemKind, Tim: rc.Timing, Lanes: rc.Core.Lanes,
		BankL1:  rc.Variant == kernels.MMX && rc.MemKind != core.MemIdeal,
		Streams: streams, Engine: engine.Wheel, VM: rc.VM,
	})
	// The registry is wired before the run: its counters are closures
	// over the live structs, so the sampler can read deltas mid-flight.
	reg := stats.NewRegistry()
	g.Register(reg)
	var tracer *stats.Tracer
	if rc.Trace != "" {
		tracer = stats.NewTracer(rc.TraceBuf)
		g.AttachTracer(tracer)
		reg.Gauge("trace.dropped", func() int64 { return int64(tracer.Dropped()) })
	}
	var sampler *stats.Sampler
	if rc.Sample > 0 {
		sampler = stats.NewSampler(reg, rc.Sample)
	}

	start := time.Now()
	g.RunSampled(sampler)
	wall := time.Since(start)
	// The tenants share one clock, so the longest tenant's cycle count is
	// the simulated time the host paid for.
	var cycles int64
	for i := 0; i < g.N(); i++ {
		cycles = max(cycles, g.Stats(i).Cycles)
	}
	engineLine := fmt.Sprintf("engine:      %s, host %.3fs, %s simulated cycles/s, %d steps of %d tenant-cycles\n",
		engine.Wheel, wall.Seconds(), fmtCPS(cycles, wall), g.Steps(), g.TenantCycles())
	if g.N() == 1 {
		reportSolo(w, rc, g, tst, engineLine)
	} else {
		reportTenants(w, rc, g, tst, engineLine)
	}

	if rc.StatsJSON != "" {
		registerHost(reg, cycles, wall, g)
		if err := stats.WriteFile(rc.StatsJSON, reg.Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "stats: wrote %d registered stats to %s\n", len(reg.Names()), rc.StatsJSON)
	}
	if sampler != nil {
		if err := stats.WriteFile(rc.SampleJSON, sampler.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "samples: wrote %d intervals (every %d cycles) to %s\n",
			len(sampler.Rows()), sampler.Interval(), rc.SampleJSON)
	}
	if tracer != nil {
		if err := stats.WriteFile(rc.Trace, tracer.WriteChromeJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: wrote %d events to %s (%d emitted, %d dropped by the ring)\n",
			tracer.Len(), rc.Trace, tracer.Total(), tracer.Dropped())
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(w, "warning: the trace ring overwrote %d events (oldest first); raise -tracebuf to keep the whole run\n", d)
		}
	}
	return nil
}

// reportSolo is the single-requestor report: the one tenant's pipeline,
// its memory system layer by layer, and the backend.
func reportSolo(w io.Writer, rc runConfig, g *tenant.Group, tst *trace.Stats, engineLine string) {
	ms, st := g.Mem(0), g.Stats(0)
	if rc.MemKind == core.MemIdeal {
		fmt.Fprintf(w, "benchmark:   %s (%s, %s)\n", rc.Bench.Name, rc.Variant, rc.MemKind)
	} else {
		fmt.Fprintf(w, "benchmark:   %s (%s, %s, L2=%d cycles, dram=%s)\n",
			rc.Bench.Name, rc.Variant, rc.MemKind, rc.Timing.L2Latency, rc.Timing.Backend.Name())
	}
	fmt.Fprintf(w, "instructions: %d  cycles: %d  IPC: %.3f\n", st.Committed, st.Cycles, st.IPC())
	fmt.Fprint(w, engineLine)
	if rc.Verify {
		fmt.Fprintln(w, "output verified against the scalar reference")
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, tst.String())
	fmt.Fprintln(w)
	vs := ms.VM.Stats()
	fmt.Fprintf(w, "vector memory: %d instructions, %d accesses, %d words, %d misses\n",
		vs.Instructions, vs.Accesses, vs.Words, vs.Misses)
	if vs.Accesses > 0 {
		fmt.Fprintf(w, "effective bandwidth: %.2f words/access\n", vs.EffectiveBandwidth())
	}
	if vs.Conflicts > 0 {
		fmt.Fprintf(w, "bank conflicts: %d\n", vs.Conflicts)
	}
	if vs.Invalidates > 0 {
		fmt.Fprintf(w, "L1 coherence invalidations: %d\n", vs.Invalidates)
	}
	fmt.Fprintf(w, "L2 activity: %d accesses (%d from scalar misses)\n", ms.L2Activity(), ms.ScalarL2Accesses)
	fmt.Fprintf(w, "forwarded loads: %d\n", st.Forwarded)
	if f := ms.MSHR(); f != nil {
		fs := f.Stats()
		fmt.Fprintf(w, "mshr file (%d entries): %d primary misses, %d merges, MLP %.2f (max %d)\n",
			f.Cap(), fs.Allocs, fs.Merges, fs.MLP(), fs.OccMax)
		fmt.Fprintf(w, "mshr batches: %d flushes, avg %.2f requests spanning %.2f instructions (max %d); %d full stalls (%d cycles)\n",
			fs.Flushes, fs.AvgBatch(), fs.AvgSpan(), fs.SpanMax, fs.FullStalls, fs.StallCycles)
		if fs.Fill.Count() > 0 {
			fmt.Fprintf(w, "mshr miss-to-fill latency: %s\n", fs.Fill)
		}
		fmt.Fprintf(w, "early retirement: %d instructions graduated with misses in flight, %d store-buffer stalls\n",
			st.EarlyRetired, st.StallSB)
	}
	if p := ms.Prefetcher(); p != nil {
		ps := ms.PrefetchStats()
		pc := p.Config()
		fmt.Fprintf(w, "prefetcher (%d streams, degree %d): %d trains, %d streams tracked, %d lines issued (%d filtered, %d dropped mshr-full, %d dropped wq-full)\n",
			pc.Streams, pc.Degree, ps.Trains, ps.Streams, ps.Issued, ps.Filtered, ps.DroppedMSHR, ps.DroppedWQ)
		fmt.Fprintf(w, "prefetch outcome: %d hits, %d late, %d useless, accuracy %.2f\n",
			ps.Hits, ps.Late, ps.Useless, ps.Accuracy())
	}
	if ds := ms.DRAM().Stats(); ds.Accesses > 0 {
		fmt.Fprintf(w, "dram (%s): %d requests, %.2f bytes/cycle\n",
			ms.DRAM().Name(), ds.Accesses, ds.AchievedBandwidth())
		if ds.ReadWait.Count() > 0 {
			fmt.Fprintf(w, "dram read queue-wait:   %s\n", ds.ReadWait)
			fmt.Fprintf(w, "dram read service time: %s\n", ds.ReadService)
		}
		// Row-buffer and queue metrics only exist on the banked model.
		if sd, ok := ms.DRAM().(*dram.SDRAM); ok {
			fmt.Fprintf(w, "dram rows: hit rate %.3f (%d hit / %d miss / %d conflict), %d refreshes\n",
				ds.RowHitRate(), ds.RowHits, ds.RowMisses, ds.RowConflicts, ds.Refreshes)
			if cfg := sd.Config(); cfg.RowPolicy != (policy.Spec{}) || ds.RowClosedEarly > 0 {
				fmt.Fprintf(w, "dram row policy (%s): %d closed early, %d reopened, %d predictor flips\n",
					cfg.RowPolicy, ds.RowClosedEarly, ds.RowReopened, ds.PredictorFlips)
			}
			fmt.Fprintf(w, "dram queue: avg %.2f (max %d), %d stall cycles, bank-level parallelism %.2f, bus utilization %.2f\n",
				ds.AvgQueueOccupancy(), ds.QueueMax, ds.StallCycles, ds.BankLevelParallelism(), ds.BusUtilization())
			fmt.Fprintf(w, "dram batches: %d posted writes (%d drains, %d partial, %d opportunistic), %d window promotions (row-hit or demand-first)\n",
				ds.Writes, ds.WriteDrains, ds.PartialDrains, ds.OppDrains, ds.Reordered)
			if ds.PrefetchReads > 0 {
				fmt.Fprintf(w, "dram prefetch reads: %d (%d deferred by the prefetch-queue cap of %d)\n",
					ds.PrefetchReads, ds.PrefetchDeferred, dram.PFQCap)
			}
			if ds.WriteReadStall > 0 {
				fmt.Fprintf(w, "dram write-induced read stall: %d bus cycles\n", ds.WriteReadStall)
			}
		}
	}
	if sp := ms.Tim.VA; sp != nil {
		ss := sp.Stats()
		vts, vws := sp.VM().TLBStats(), sp.VM().WalkStats()
		fmt.Fprintf(w, "vm (%s placement): %d pages mapped, L1 TLB %d hit / %d miss, L2 TLB %d hit / %d miss, %d walks (%d coalesced), %d demand faults\n",
			sp.VM().Config().Policy, ss.PagesMapped, ss.L1Hits, ss.L1Misses,
			vts.L2Hits, vts.L2Misses, vws.Walks, vws.Coalesced, ss.Faults)
		if vws.Latency.Count() > 0 {
			fmt.Fprintf(w, "vm walk latency: %s\n", vws.Latency)
		}
	}
	if rc.MemKind != core.MemIdeal {
		bd := power.Estimate(power.DefaultParams(), st.Cycles, vs, ms.ScalarL2Accesses, tst.D3MoveElems)
		fmt.Fprintf(w, "memory subsystem power: %.2f W (L2 %.2f, 3D RF %.3f)\n", bd.Total(), bd.L2Watts, bd.D3Watts)
	}
	if st.Mispredicts > 0 {
		fmt.Fprintf(w, "branch mispredicts: %d\n", st.Mispredicts)
	}
	if rc.CPIStack {
		printCPIStack(w, "", st)
	}
}

// printCPIStack renders the cycle-attribution report: every bucket with
// its share of the run, and the conservation line the stack guarantees.
// indent prefixes each line for the per-tenant report.
func printCPIStack(w io.Writer, indent string, st *core.Stats) {
	c := &st.CPI
	fmt.Fprintf(w, "%scpi stack: %d cycles attributed (sum %d)\n", indent, st.Cycles, c.Sum())
	for _, b := range c.Buckets() {
		if b.N == 0 {
			continue
		}
		fmt.Fprintf(w, "%s  %-10s %12d  %5.1f%%\n", indent, b.Name, b.N,
			100*float64(b.N)/float64(st.Cycles))
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
// nanoseconds of the simulation loop, simulated cycles per host second,
// and the Step calls the engine made of the tenant-cycles simulated —
// under host.* so sweep tooling can read engine throughput and
// efficiency straight out of the stats snapshot.
func registerHost(reg *stats.Registry, cycles int64, wall time.Duration, g *tenant.Group) {
	ns := wall.Nanoseconds()
	cps := int64(0)
	if ns > 0 {
		cps = int64(float64(cycles) / wall.Seconds())
	}
	reg.Gauge("host.wall_ns", func() int64 { return ns })
	reg.Gauge("host.sim_cycles_per_sec", func() int64 { return cps })
	reg.Gauge("host.steps", g.Steps)
	reg.Gauge("host.tenant_cycles", g.TenantCycles)
}

// reportTenants is the multi-requestor report: every tenant's pipeline
// and backend shard, then the shared totals.
func reportTenants(w io.Writer, rc runConfig, g *tenant.Group, tst *trace.Stats, engineLine string) {
	qosTag := ""
	if rc.QoS {
		qosTag = ", qos"
	}
	fmt.Fprintf(w, "benchmark:   %s (%s, %s, dram=%s, %d tenants%s)\n",
		rc.Bench.Name, rc.Variant, rc.MemKind, rc.Timing.Backend.Name(), g.N(), qosTag)
	fmt.Fprint(w, engineLine)
	for i := 0; i < g.N(); i++ {
		st := g.Stats(i)
		fmt.Fprintf(w, "tenant %d: %d instructions, %d cycles, IPC %.3f\n",
			i, st.Committed, st.Cycles, st.IPC())
		if ts := g.TenantStatsOf(i); ts != nil {
			fmt.Fprintf(w, "  dram: %d reads (%d prefetch), %d writes, %d bytes, %d qos-deferred\n",
				ts.Reads, ts.PrefetchReads, ts.Writes, ts.Bytes, ts.QoSDeferred)
			if ts.ReadLatency.Count() > 0 {
				fmt.Fprintf(w, "  dram read latency: %s\n", ts.ReadLatency)
			}
		}
		if sp := g.Mem(i).Tim.VA; sp != nil {
			ss := sp.Stats()
			fmt.Fprintf(w, "  vm: %d pages mapped, L1 TLB %d hit / %d miss, %d demand faults\n",
				ss.PagesMapped, ss.L1Hits, ss.L1Misses, ss.Faults)
		}
		if rc.CPIStack {
			printCPIStack(w, "  ", st)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, tst.String())
	if ds := rc.Timing.Backend.Stats(); ds.Accesses > 0 {
		fmt.Fprintf(w, "\ndram (%s, shared): %d requests, %.2f bytes/cycle\n",
			rc.Timing.Backend.Name(), ds.Accesses, ds.AchievedBandwidth())
		if ds.QoSDeferred > 0 || rc.QoS {
			fmt.Fprintf(w, "dram qos: %d reads deferred past a tenant's credit\n", ds.QoSDeferred)
		}
	}
	if rc.VM != nil {
		vts, vws := rc.VM.TLBStats(), rc.VM.WalkStats()
		fmt.Fprintf(w, "\nvm (%s placement, shared): L2 TLB %d hit / %d miss, %d walks (%d coalesced), %d free pages\n",
			rc.VM.Config().Policy, vts.L2Hits, vts.L2Misses, vws.Walks, vws.Coalesced, rc.VM.FreePages())
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "momsim: "+format+"\n", args...)
	os.Exit(1)
}
