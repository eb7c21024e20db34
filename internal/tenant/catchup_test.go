package tenant

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// flushProbe is the banked controller with a look at the group's clocks
// every time the MSHR file submits a batch — with a file in the machine
// the file's flush is Submit's only caller, and it calls it right after
// its BeforeFlush hook.
type flushProbe struct {
	*dram.SDRAM
	t       *testing.T
	g       *Group
	flushes int
	asleep  int // flushes that found a tenant behind the flushing one asleep
}

func (p *flushProbe) Submit(batch []dram.Request) []dram.Completion {
	g := p.g
	p.flushes++
	asleep := false
	for i := range g.seats {
		st := &g.seats[i]
		if st.due == never {
			continue
		}
		want := g.now
		if i < g.cur {
			want++
		}
		if st.sim.Now() != want {
			p.t.Fatalf("flush by tenant %d at cycle %d: tenant %d's clock reads %d, lockstep has it at %d",
				g.cur, g.now, i, st.sim.Now(), want)
		}
		asleep = asleep || i > g.cur && st.due > g.now
	}
	if asleep {
		p.asleep++
	}
	return p.SDRAM.Submit(batch)
}

// TestSleepersAreCaughtUpAtEveryFlush pins the rule the wheel group adds
// to wheel.go's: a flush is the one event through which a tenant can
// change what another's bulk CPI charge reads (resolved, qosDelay), so
// at every flush every running tenant's clock stands where per-cycle
// lockstep has it — t+1 for the tenants ahead of the flushing one in the
// round, t for it and the ones behind — and the cycles before the flush
// are charged on the state before it. QoS budgets almost always drain
// the same either way, which is why no equivalence test fails without
// the catch-up and this one looks at the clocks.
func TestSleepersAreCaughtUpAtEveryFlush(t *testing.T) {
	small := func(bm kernels.Benchmark) *trace.Stream {
		tr := &trace.Trace{}
		bm.Run(kernels.MOM3D, tr)
		return trace.Compact(tr.Insts)
	}
	ms := small(kernels.MotionSearch(kernels.SmallMotionSearchConfig()))
	gsm := small(kernels.GSMEncode(kernels.SmallGSMEncConfig()))
	jpg := small(kernels.JPEGEncode(kernels.SmallJPEGEncConfig()))
	for _, tc := range []struct {
		spec    string
		streams []*trace.Stream
	}{
		{"sdram/line/frfcfs/mshr8/pf4", []*trace.Stream{ms, gsm, jpg}},
		{"sdram/line/frfcfs/mshr8/tn4/qos", []*trace.Stream{ms, jpg, gsm, ms}},
	} {
		backend, knobs, err := dram.ParseSpecFull(tc.spec, 100)
		if err != nil {
			t.Fatalf("spec %q: %v", tc.spec, err)
		}
		probe := &flushProbe{SDRAM: backend.(*dram.SDRAM), t: t}
		cfg := core.MOMCore()
		probe.g = New(Options{Core: cfg, Kind: core.MemVectorCache3D, Lanes: cfg.Lanes,
			Tim: vmem.Timing{L2Latency: 20, MemLatency: 100, Backend: probe,
				MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree},
			Streams: tc.streams, Engine: engine.Wheel})
		probe.g.Run()
		if probe.asleep == 0 {
			t.Errorf("%s: none of %d flushes found a tenant asleep: the run pins nothing", tc.spec, probe.flushes)
		}
	}
}
