package dram

import (
	"fmt"
	"strings"

	"repro/internal/dram/policy"
)

// Preset selects a timing profile for the SDRAM model: a commodity DDR
// DIMM or a die-stacked / HBM part (short tRCD/tCAS, many narrow
// channels, hot refresh) — the high-bandwidth media-memory organization
// the paper's argument points at.
type Preset int

const (
	// PresetDDR is the commodity-DIMM profile (DefaultConfig).
	PresetDDR Preset = iota
	// PresetHBM is the die-stacked profile: 8 narrow channels, short
	// row-management latencies, longer per-line bursts and a hotter
	// refresh cadence.
	PresetHBM
)

// String names the preset as the -dprof flag spells it.
func (p Preset) String() string {
	if p == PresetHBM {
		return "hbm"
	}
	return "ddr"
}

// ParsePreset resolves a -dprof flag value.
func ParsePreset(s string) (Preset, error) {
	switch strings.ToLower(s) {
	case "ddr", "commodity":
		return PresetDDR, nil
	case "hbm", "stacked", "3d":
		return PresetHBM, nil
	}
	return 0, fmt.Errorf("unknown timing profile %q (ddr, hbm)", s)
}

// Config returns the preset's controller configuration.
func (p Preset) Config() Config {
	if p == PresetHBM {
		return Config{
			Channels: 8, Ranks: 1, Banks: 8,
			RowBytes: 2 << 10, RowsPerBank: 1 << 14,
			TRCD: 14, TCAS: 16, TRP: 14, TBurst: 16, TTurn: 2,
			TREFI: 3900, TRFC: 140,
			Mapping: MapLine, Scheduler: FRFCFS,
		}
	}
	return DefaultConfig()
}

// Knobs are the controller overrides the CLIs and spec strings expose
// on top of a preset; zero values mean "keep the preset's setting".
// KnobTable holds each field's flag, spec token and legal values. Not
// every knob is the controller's: MSHRs, PFStreams, PFDegree, Tenants
// and VA configure layers above it (the vmem MSHR file and stream
// prefetcher, the tenant front end, address translation), so spec
// strings can key whole configurations — Selection.Build validates
// them but callers thread them into vmem.Timing themselves
// (ParseSpecFull returns the parsed knobs for that).
type Knobs struct {
	Channels int // channel count
	MSHRs    int // vmem MSHR file size (0 or 1 = the blocking model)

	// RP is the per-bank row policy; the zero value keeps the preset's
	// static open page.
	RP policy.Spec

	// PFStreams/PFDegree size the vmem-level stream prefetcher:
	// stream-table entries and lines kept in flight per stream. They
	// require a non-blocking file, because predicted lines ride the
	// lazily-submitted MSHR batch.
	PFStreams int
	PFDegree  int

	// Tenants is the requestor count of a multi-tenant run; on sdram it
	// additionally sizes the QoS credit scheduler. QoS turns on
	// per-tenant credit scheduling in the sdram controller.
	Tenants int
	QoS     bool

	// VA turns on per-requestor virtual address translation in the
	// memory front end and names the physical placement policy
	// ("first", "color" or "colo"); "" leaves translation off.
	VA string
}

func (k Knobs) apply(cfg Config) Config {
	if k.Channels > 0 {
		cfg.Channels = k.Channels
	}
	if k.RP != (policy.Spec{}) {
		// An explicit rpopen canonicalizes to the zero spec, so a
		// configuration that names the default compares (and simulates)
		// identically to one that omits it.
		if k.RP.Kind == policy.Open {
			cfg.RowPolicy = policy.Spec{}
		} else {
			cfg.RowPolicy = k.RP
		}
	}
	if k.Tenants > 0 {
		cfg.Tenants = k.Tenants
	}
	if k.QoS {
		cfg.QoS = true
	}
	return cfg
}

// Build constructs the selected backend of the given kind. It is the
// construction boundary of every entry point — both commands' flags and
// ParseSpecFull end here — so a knob outside its KnobTable range, or
// set without the knob it needs, and a configuration Config.Validate
// refuses, is an error and never reaches NewSDRAM.
func (s *Selection) Build(kind string, fixedLatency int64) (Backend, error) {
	// Mapping, scheduler and profile are validated for every kind so a
	// typo is diagnosed even when the fixed backend would ignore the
	// value (empty strings mean "unspecified" and stay legal for fixed).
	kind = strings.ToLower(kind)
	var m Mapping
	var sc Scheduler
	var p Preset
	var err error
	if s.Mapping != "" || kind == "sdram" {
		if m, err = ParseMapping(s.Mapping); err != nil {
			return nil, err
		}
	}
	if s.Sched != "" || kind == "sdram" {
		if sc, err = ParseScheduler(s.Sched); err != nil {
			return nil, err
		}
	}
	if s.Prof != "" {
		if p, err = ParsePreset(s.Prof); err != nil {
			return nil, err
		}
	}
	for i := range KnobTable {
		if err := KnobTable[i].check(s); err != nil {
			return nil, err
		}
	}
	switch kind {
	case "fixed":
		return NewFixed(fixedLatency), nil
	case "sdram":
		cfg := s.apply(p.Config())
		cfg.Mapping, cfg.Scheduler = m, sc
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return NewSDRAM(cfg), nil
	}
	return nil, fmt.Errorf("unknown dram backend %q (fixed, sdram)", kind)
}

// FormatSpecOpts renders a spec string — the form the experiments
// runner keys simulations by, and ParseSpecFull (which has the grammar)
// accepts: one segment per set knob in KnobTable order; unset knobs and
// an empty profile are omitted. Only the sdram kind prints the
// controller's segments; the knobs above it survive on every kind.
func FormatSpecOpts(kind, mapping, sched, prof string, knobs Knobs) string {
	return (&Selection{mapping, sched, prof, knobs}).Spec(kind)
}

// grammar lists every segment a spec may hold, for the unknown-token
// message.
func grammar() string {
	var b strings.Builder
	for i := range KnobTable {
		if r := &KnobTable[i]; r.Joins {
			b.WriteString("[" + r.Token + "<m>]")
		} else {
			b.WriteString(" " + r.segment())
		}
	}
	return b.String()
}

// ParseSpecFull builds a backend from a spec string and returns its knobs:
//
//	fixed[/mshr<n>][/pf<n>[d<m>]][/tn<n>][/va|vacolor|vacolo]
//	sdram[/mapping[/sched[/profile]]][/<n>ch][/rp<name>[:<n>]][/qos]
//	     [/mshr<n>][/pf<n>[d<m>]][/tn<n>][/va|vacolor|vacolo]
//
// This is the one statement of the grammar; KnobTable generates it.
// Omitted sdram fields take their flags' defaults (line/frfcfs/ddr);
// knob segments may appear anywhere after the kind. Every segment must
// parse: an unrecognized or misspelled token (say "msrh8") is an error,
// never silently dropped, and controller segments on the fixed kind are
// rejected rather than ignored.
func ParseSpecFull(spec string, fixedLatency int64) (Backend, Knobs, error) {
	kind, rest, more := strings.Cut(spec, "/")
	kind = strings.ToLower(kind)
	var sel Selection
	next := 0 // table index the next positional field is looked for from
	for more {
		var tok string
		tok, rest, more = strings.Cut(rest, "/")
		if parseKnob(tok, &sel) {
			continue
		}
		// Positional fields are validated in place so a typo'd token is
		// diagnosed against everything a spec may contain, not just the
		// slot it happened to land in.
		for next < len(KnobTable) && KnobTable[next].Token != "" {
			next++
		}
		if next == len(KnobTable) || KnobTable[next].set(&sel, tok) != nil {
			return nil, Knobs{}, fmt.Errorf("unknown token %q in spec %q (want%s)", tok, spec, grammar())
		}
		next++
	}
	for i := range KnobTable {
		r := &KnobTable[i]
		switch {
		case kind != "sdram" && r.SDRAM && r.isSet(&sel):
			return nil, Knobs{}, fmt.Errorf("spec %q: %s configures the banked controller and applies to the sdram kind only", spec, r)
		case kind == "sdram" && r.get != nil && r.Def != "" && !r.isSet(&sel):
			_ = r.set(&sel, r.Def) // the table's own default parses
		}
	}
	b, err := sel.Build(kind, fixedLatency)
	if err != nil {
		return nil, Knobs{}, err
	}
	return b, sel.Knobs, nil
}
