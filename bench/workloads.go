package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// fullSuite is the six full-size kernels with the benchmark seed XORed
// into each content seed: seed 0 reproduces the EXPERIMENTS.md
// reference tables, any other seed is content the model was never
// tuned on. The first five are the paper's suite, in figure order.
func fullSuite(seed uint64) []kernels.Benchmark {
	je, jd := kernels.DefaultJPEGEncConfig(), kernels.DefaultJPEGDecConfig()
	md, me := kernels.DefaultMPEG2DecConfig(), kernels.DefaultMPEG2EncConfig()
	ge, ms := kernels.DefaultGSMEncConfig(), kernels.DefaultMotionSearchConfig()
	je.Seed ^= seed
	jd.Seed ^= seed
	md.Seed ^= seed
	me.Seed ^= seed
	ge.Seed ^= seed
	ms.Seed ^= seed
	return []kernels.Benchmark{
		kernels.JPEGEncode(je), kernels.JPEGDecode(jd), kernels.MPEG2Decode(md),
		kernels.MPEG2Encode(me), kernels.GSMEncode(ge), kernels.MotionSearch(ms),
	}
}

// paperKernels is how many leading kernels of a suite the paper's
// figures iterate; the sixth (motionsearch) is resolved by name.
const paperKernels = 5

// stage is one sweep, table or figure of a workload. run computes it
// and returns its renderer, so computing and rendering are timed
// apart; it may leave derived figures in the iteration record.
type stage struct {
	name string
	run  func(r *experiments.Runner, it *iteration) func() string
}

// workload is one thing people run, as a list of stages over a fresh
// Runner. The names are fixed: later issues cite them.
type workload struct {
	name      string
	engine    engine.Mode
	paperOnly bool // Runner over the five paper kernels, as momexp builds it
	stages    []stage
	// ref names the workload whose check digest this one must equal;
	// check names the one stage the comparison covers ("" = all).
	ref, check string
	probes     []probe
}

// probe is one simulation cell the traced pass rebuilds from public
// constructors so that it can put its own timers between the layers.
type probe struct {
	bench   string
	variant kernels.Variant
	mem     core.MemKind
	spec    string // main-memory backend spec, "" = flat latency
	tenants int    // > 1: that many copies of the trace through tenant.New
}

func (p probe) id() string {
	s := fmt.Sprintf("%s/%s/%s", p.bench, p.variant, p.mem)
	if p.spec != "" {
		s += "/" + p.spec
	}
	if p.tenants > 1 {
		s = fmt.Sprintf("%dx %s", p.tenants, s)
	}
	return s
}

// sweepStage is a stage that computes rows and renders them.
func sweepStage[T any](name string, sweep func(*experiments.Runner) T, render func(T) string) stage {
	return stage{name, func(r *experiments.Runner, _ *iteration) func() string {
		rows := sweep(r)
		return func() string { return render(rows) }
	}}
}

func figureStage(name string, fig func(*experiments.Runner) *experiments.Figure) stage {
	return sweepStage(name, fig, (*experiments.Figure).Render)
}

// constStage renders a table that needs no simulation.
func constStage(name string, table func() string) stage {
	return stage{name, func(*experiments.Runner, *iteration) func() string { return table }}
}

// paperStages is momexp's default run minus the sweeps.
var paperStages = []stage{
	sweepStage("table1", experiments.Table1, experiments.RenderTable1),
	constStage("table2", experiments.Table2),
	constStage("table3", experiments.Table3),
	figureStage("figure3", experiments.Figure3),
	figureStage("figure6", experiments.Figure6),
	figureStage("figure7", experiments.Figure7),
	sweepStage("table4", experiments.Table4, experiments.RenderTable4),
	figureStage("figure9", experiments.Figure9),
	figureStage("figure10", experiments.Figure10),
	figureStage("figure11", experiments.Figure11),
	{"headline", func(r *experiments.Runner, it *iteration) func() string {
		h := experiments.ComputeHeadline(r)
		// The abstract's three claims: +13 % speed, −30 % L2 power,
		// +50 % register-file area.
		it.PaperGapPts = (math.Abs(h.AvgSpeedupPct-13) + math.Abs(h.AvgL2PowerSavePct-30) +
			math.Abs(h.AreaOverheadPct-50)) / 3
		return h.Render
	}},
}

var (
	mshrStage    = sweepStage("mshrsweep", experiments.MSHRSweep, experiments.RenderMSHRSweep)
	pfStage      = sweepStage("pfsweep", experiments.PFSweep, experiments.RenderPFSweep)
	rpStage      = sweepStage("rpsweep", experiments.RPSweep, experiments.RenderRPSweep)
	latDistStage = sweepStage("latdist", experiments.LatDist, experiments.RenderLatDist)
	vaStage      = sweepStage("vasweep", experiments.VASweep, experiments.RenderVASweep)
	ifStage      = stage{"ifsweep", func(r *experiments.Runner, it *iteration) func() string {
		rows := experiments.IFSweep(r)
		// The four-way motionsearch storm under QoS is the row the
		// tenant layer's fairness figures are read from.
		q := rows[0]
		var sum, sq float64
		for i, c := range q.QoS.Cycles {
			s := float64(c) / float64(q.Solo[i])
			it.TenantMaxSlowdown = math.Max(it.TenantMaxSlowdown, s)
			sum += s
			sq += s * s
		}
		it.TenantJain = sum * sum / (float64(len(q.QoS.Cycles)) * sq)
		it.TenantBytesPerCycle = q.QoS.DRAM.AchievedBandwidth()
		return func() string { return experiments.RenderIFSweep(rows) }
	}}
)

// The probe cells. Spec strings are the ones the sweeps themselves
// build (mshrSpec, rpSpec, ifSpec, vaSpec in internal/experiments).
var (
	paperProbes = []probe{
		{bench: "mpeg2encode", variant: kernels.MMX, mem: core.MemMultiBanked},
		{bench: "mpeg2encode", variant: kernels.MOM, mem: core.MemVectorCache},
		{bench: "mpeg2encode", variant: kernels.MOM3D, mem: core.MemVectorCache3D},
		{bench: "gsmencode", variant: kernels.MOM3D, mem: core.MemVectorCache3D},
	}
	dramProbes = []probe{
		{bench: "motionsearch", variant: kernels.MOM3D, mem: core.MemVectorCache3D,
			spec: "sdram/line/frfcfs/hbm/mshr8"},
		{bench: "motionsearch", variant: kernels.MOM3D, mem: core.MemVectorCache3D,
			spec: "sdram/line/frfcfs/rphistory/mshr64/pf48d2"},
		{bench: "gsmencode", variant: kernels.MOM3D, mem: core.MemVectorCache3D,
			spec: "sdram/line/frfcfs/hbm/rpopen/mshr64/pf8d4"},
	}
	tenantProbes = []probe{
		{bench: "motionsearch", variant: kernels.MOM3D, mem: core.MemVectorCache3D,
			spec: "sdram/line/frfcfs/tn4/qos", tenants: 4},
		{bench: "motionsearch", variant: kernels.MOM3D, mem: core.MemVectorCache3D,
			spec: "sdram/bank/frfcfs/tn4/vacolor", tenants: 4},
	}
)

var workloads = []workload{
	{name: "paper-eval", engine: engine.Step, paperOnly: true, stages: paperStages, probes: paperProbes},
	{name: "paper-eval-wheel", engine: engine.Wheel, paperOnly: true, stages: paperStages,
		ref: "paper-eval", probes: paperProbes},
	{name: "dram-sweeps", engine: engine.Wheel,
		stages: []stage{mshrStage, pfStage, rpStage, latDistStage}, check: "rpsweep", probes: dramProbes},
	{name: "rp-step", engine: engine.Step, stages: []stage{rpStage},
		ref: "dram-sweeps", check: "rpsweep", probes: dramProbes},
	{name: "tenant-mix", engine: engine.Wheel, stages: []stage{ifStage, vaStage}, probes: tenantProbes},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
