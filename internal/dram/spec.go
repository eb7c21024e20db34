package dram

import (
	"fmt"
	"strconv"
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
			RowBytes: 2 << 10, RowsPerBank: 1 << 14, LineBytes: lineBytes,
			TRCD: 14, TCAS: 16, TRP: 14, TBurst: 16, TTurn: 2,
			TREFI: 3900, TRFC: 140,
			QueueDepth: 16, ReorderWindow: 8, WQDepth: 16, WQDrain: 12,
			WQLow: 4, WQIdle: 30,
			Mapping: MapLine, Scheduler: FRFCFS,
		}
	}
	return DefaultConfig()
}

// Knobs are the controller overrides the CLIs and spec strings expose
// on top of a preset; zero values mean "keep the preset's setting".
// MSHRs is the odd one out: it sizes the vmem-level MSHR file, not the
// controller, so spec strings can key whole non-blocking configurations
// — BuildOpts validates it but callers thread it into vmem.Timing
// themselves (ParseSpecFull returns the parsed knobs for that).
type Knobs struct {
	Channels int // -dchan / "<n>ch": channel count (power of two)
	WQDrain  int // -dwq / "wq<n>": write-queue drain threshold
	Window   int // -dwin / "win<n>": FR-FCFS reorder window

	// WQLow (-dwql / "wql<n>") and WQIdle (-dwqi / "wqi<n>") override
	// the partial-drain low watermark and the idle-bus opportunistic-
	// drain gap. Since the presets ship both tuned on, zero means
	// "keep the preset's setting" like every other knob, and -1 (spec
	// "wql0" / "wqi0") explicitly disables the feature.
	WQLow  int
	WQIdle int64

	MSHRs int // -mshr / "mshr<n>": vmem MSHR file size (0 or 1 = the blocking model)

	// RP is the per-bank row policy (-rp / "rp<name>[:<n>]"); the zero
	// value keeps the preset's static open page. PFQ caps per-channel
	// prefetch read-queue occupancy (-pfq / "pfq<n>"; 0 = the
	// controller default of half the queue depth).
	RP  policy.Spec
	PFQ int

	// PFStreams/PFDegree size the vmem-level stream prefetcher
	// (-pf / -pfd, spec "pf<n>" or "pf<n>d<m>"): stream-table entries
	// and lines kept in flight per stream. Like MSHRs they configure
	// the vmem layer, not the controller — and they require a
	// non-blocking file (MSHRs >= 2), because predicted lines ride the
	// lazily-submitted MSHR batch.
	PFStreams int
	PFDegree  int

	// PFDecay (-pfdecay / "pfdec<n>") lets the demand-first latch decay
	// after that many deferral-free cycles (Config.PFDecay); 0 keeps
	// the sticky latch. It needs a prefetcher to matter, so like pfq it
	// requires PFStreams > 0.
	PFDecay int

	// Tenants (-tenants / "tn<n>") is the requestor count of a
	// multi-tenant run. Like MSHRs it mostly configures layers above
	// the controller (the tenant front end), so it is legal on every
	// kind; on sdram it additionally sizes the QoS credit scheduler.
	// QoS (-qos / "qos") turns on per-tenant credit scheduling in the
	// sdram controller and requires Tenants >= 2.
	Tenants int
	QoS     bool

	// VA (-va / "va", "vacolor", "vacolo") turns on per-requestor
	// virtual address translation in the memory front end and names the
	// physical placement policy ("first", "color" or "colo"). Like
	// MSHRs and Tenants it configures layers above the controller, so
	// it is legal on every kind; "" leaves translation off.
	VA string
}

func (k Knobs) apply(cfg Config) Config {
	if k.Channels > 0 {
		cfg.Channels = k.Channels
	}
	if k.WQDrain > 0 {
		cfg.WQDrain = k.WQDrain
		if cfg.WQDepth < cfg.WQDrain {
			cfg.WQDepth = cfg.WQDrain
		}
		// A knob that shrinks the drain threshold below the preset's
		// tuned watermark drops the watermark rather than erroring; an
		// explicit wql knob is applied (and conflict-checked) below.
		if cfg.WQLow >= cfg.WQDrain {
			cfg.WQLow = 0
		}
	}
	if k.Window > 0 {
		cfg.ReorderWindow = k.Window
	}
	if k.WQLow > 0 {
		cfg.WQLow = k.WQLow
	} else if k.WQLow == -1 {
		cfg.WQLow = 0 // explicit off: threshold drains empty the queue
	}
	if k.WQIdle > 0 {
		cfg.WQIdle = k.WQIdle
	} else if k.WQIdle == -1 {
		cfg.WQIdle = 0 // explicit off: no idle-bus drains
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
	if k.PFQ > 0 {
		cfg.PFQCap = k.PFQ
	}
	if k.PFDecay > 0 {
		cfg.PFDecay = int64(k.PFDecay)
	}
	if k.Tenants > 0 {
		cfg.Tenants = k.Tenants
	}
	if k.QoS {
		cfg.QoS = true
	}
	return cfg
}

// Build constructs a backend from flag-level strings: kind is "fixed"
// or "sdram"; mapping and sched configure the SDRAM variants;
// fixedLatency is the flat latency of the fixed backend. The default
// DDR profile and preset knobs apply; BuildOpts exposes them.
func Build(kind, mapping, sched string, fixedLatency int64) (Backend, error) {
	return BuildOpts(kind, mapping, sched, "", Knobs{}, fixedLatency)
}

// BuildOpts is Build plus the timing profile and controller knobs.
func BuildOpts(kind, mapping, sched, prof string, knobs Knobs, fixedLatency int64) (Backend, error) {
	// Mapping, scheduler and profile are validated for every kind so a
	// typo is diagnosed even when the fixed backend would ignore the
	// value (empty strings mean "unspecified" and stay legal for fixed).
	kind = strings.ToLower(kind)
	var m Mapping
	var sc Scheduler
	var p Preset
	var err error
	if mapping != "" || kind == "sdram" {
		if m, err = ParseMapping(mapping); err != nil {
			return nil, err
		}
	}
	if sched != "" || kind == "sdram" {
		if sc, err = ParseScheduler(sched); err != nil {
			return nil, err
		}
	}
	if prof != "" {
		if p, err = ParsePreset(prof); err != nil {
			return nil, err
		}
	}
	if knobs.Channels < 0 || knobs.WQDrain < 0 || knobs.Window < 0 ||
		knobs.WQLow < -1 || knobs.WQIdle < -1 || knobs.MSHRs < 0 ||
		knobs.PFStreams < 0 || knobs.PFDegree < 0 || knobs.PFQ < 0 ||
		knobs.PFDecay < 0 || knobs.Tenants < 0 {
		return nil, fmt.Errorf("controller knobs must be positive (channels %d, wq drain %d, window %d, wq low %d, wq idle %d, mshrs %d, pf %d, pfd %d, pfq %d, pfdec %d, tn %d; wq low/idle -1 = explicitly off)",
			knobs.Channels, knobs.WQDrain, knobs.Window, knobs.WQLow, knobs.WQIdle, knobs.MSHRs, knobs.PFStreams, knobs.PFDegree, knobs.PFQ, knobs.PFDecay, knobs.Tenants)
	}
	if knobs.PFDegree > 0 && knobs.PFStreams == 0 {
		return nil, fmt.Errorf("prefetch degree %d needs a stream count (-pf / pf<n>)", knobs.PFDegree)
	}
	if knobs.PFQ > 0 && knobs.PFStreams == 0 {
		return nil, fmt.Errorf("prefetch queue cap %d needs a stream count (-pf / pf<n>)", knobs.PFQ)
	}
	if knobs.PFDecay > 0 && knobs.PFStreams == 0 {
		return nil, fmt.Errorf("demand-first decay %d governs prefetch scheduling and needs a stream count (-pf / pf<n>)", knobs.PFDecay)
	}
	if knobs.Tenants > MaxTenants {
		return nil, fmt.Errorf("tenant count %d is past the %d requestors a request can name (-tenants / tn<n>)", knobs.Tenants, MaxTenants)
	}
	if knobs.QoS && knobs.Tenants < 2 {
		return nil, fmt.Errorf("qos scheduling partitions the channel between requestors and needs a tenant count of at least 2 (-tenants / tn<n>)")
	}
	if knobs.PFStreams > 0 && knobs.MSHRs < 2 {
		return nil, fmt.Errorf("the stream prefetcher rides the MSHR batch: pf %d needs a non-blocking MSHR file (mshr >= 2, have %d)",
			knobs.PFStreams, knobs.MSHRs)
	}
	switch kind {
	case "fixed":
		return NewFixed(fixedLatency), nil
	case "sdram":
		cfg := knobs.apply(p.Config())
		cfg.Mapping, cfg.Scheduler = m, sc
		if cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0 {
			return nil, fmt.Errorf("channel count %d not a power of two", cfg.Channels)
		}
		if cfg.WQLow != 0 && cfg.WQLow >= cfg.WQDrain {
			return nil, fmt.Errorf("write-queue low watermark %d must be below the drain threshold %d", cfg.WQLow, cfg.WQDrain)
		}
		return NewSDRAM(cfg), nil
	}
	return nil, fmt.Errorf("unknown dram backend %q (fixed, sdram)", kind)
}

// ValidateFlagCombo rejects explicitly-set command-line knobs that the
// selected backend kind would silently ignore: the sdram-only knobs
// (-dmap/-dsched/-dprof/-dchan/-dwq/-dwql/-dwqi/-dwin/-rp/-pfq) only
// take effect on the sdram backend, -mlat only on the fixed backend.
// -mshr is deliberately absent: the MSHR file sits above the backend
// and applies to every kind. Both simulator binaries share this policy
// so their CLI contracts agree.
func ValidateFlagCombo(kind string, sdramKnobSet, mlatSet bool) error {
	kind = strings.ToLower(kind)
	if sdramKnobSet && kind != "sdram" {
		return fmt.Errorf("-dmap/-dsched/-dprof/-dchan/-dwq/-dwql/-dwqi/-dwin/-rp/-pfq/-pfdecay/-qos require -dram sdram")
	}
	if mlatSet && kind == "sdram" {
		return fmt.Errorf("-mlat applies to the fixed backend only; drop it with -dram sdram")
	}
	return nil
}

// FormatSpec renders Build arguments as the compact
// "kind[/mapping/sched]" spec string ParseSpec accepts — the form the
// experiments runner keys simulations by. FormatSpecOpts adds the
// profile and knob segments.
func FormatSpec(kind, mapping, sched string) string {
	return FormatSpecOpts(kind, mapping, sched, "", Knobs{})
}

// FormatSpecOpts renders the full
// "sdram/<mapping>/<sched>[/<profile>][/<n>ch][/wq<n>][/wql<n>]
// [/wqi<n>][/win<n>][/rp<name>[:<n>]][/pfq<n>][/pfdec<n>][/qos]
// [/mshr<n>][/pf<n>d<m>][/tn<n>]" form; zero-valued knobs and an empty
// profile are omitted. The mshr, pf and tn knobs survive on the fixed
// kind too — they configure layers above the controller.
func FormatSpecOpts(kind, mapping, sched, prof string, knobs Knobs) string {
	kind = strings.ToLower(kind)
	s := kind
	if kind == "sdram" {
		s += "/" + strings.ToLower(mapping) + "/" + strings.ToLower(sched)
		if prof != "" {
			s += "/" + strings.ToLower(prof)
		}
		if knobs.Channels > 0 {
			s += fmt.Sprintf("/%dch", knobs.Channels)
		}
		if knobs.WQDrain > 0 {
			s += fmt.Sprintf("/wq%d", knobs.WQDrain)
		}
		if knobs.WQLow > 0 {
			s += fmt.Sprintf("/wql%d", knobs.WQLow)
		} else if knobs.WQLow == -1 {
			s += "/wql0"
		}
		if knobs.WQIdle > 0 {
			s += fmt.Sprintf("/wqi%d", knobs.WQIdle)
		} else if knobs.WQIdle == -1 {
			s += "/wqi0"
		}
		if knobs.Window > 0 {
			s += fmt.Sprintf("/win%d", knobs.Window)
		}
		if knobs.RP != (policy.Spec{}) {
			s += "/rp" + knobs.RP.String()
		}
		if knobs.PFQ > 0 {
			s += fmt.Sprintf("/pfq%d", knobs.PFQ)
		}
		if knobs.PFDecay > 0 {
			s += fmt.Sprintf("/pfdec%d", knobs.PFDecay)
		}
		if knobs.QoS {
			s += "/qos"
		}
	}
	if knobs.MSHRs > 0 {
		s += fmt.Sprintf("/mshr%d", knobs.MSHRs)
	}
	if knobs.PFStreams > 0 {
		if knobs.PFDegree > 0 {
			s += fmt.Sprintf("/pf%dd%d", knobs.PFStreams, knobs.PFDegree)
		} else {
			s += fmt.Sprintf("/pf%d", knobs.PFStreams)
		}
	}
	if knobs.Tenants > 0 {
		s += fmt.Sprintf("/tn%d", knobs.Tenants)
	}
	switch knobs.VA {
	case "first":
		s += "/va"
	case "color":
		s += "/vacolor"
	case "colo":
		s += "/vacolo"
	}
	return s
}

// parseKnob recognizes the spec knob tokens: "<n>ch", "wq<n>",
// "wql<n>", "wqi<n>", "win<n>", "rp<name>[:<n>]", "pfq<n>", "pfdec<n>",
// "qos", "va"/"vacolor"/"vacolo", "mshr<n>", "tn<n>", "pf<n>" and
// "pf<n>d<m>". Longer prefixes
// are tried first so "wql2" never half-matches "wq" and "pfq8"/"pfdec50"
// never half-match "pf".
func parseKnob(tok string, k *Knobs) bool {
	if n, ok := strings.CutSuffix(tok, "ch"); ok {
		if v, err := strconv.Atoi(n); err == nil && v > 0 {
			k.Channels = v
			return true
		}
		return false
	}
	if n, ok := strings.CutPrefix(tok, "rp"); ok {
		sp, err := policy.Parse(n)
		if err != nil {
			return false
		}
		k.RP = sp
		return true
	}
	if tok == "qos" {
		k.QoS = true
		return true
	}
	// The va tokens are exact matches (checked before the prefix loop,
	// though no current prefix collides with "va").
	switch tok {
	case "va":
		k.VA = "first"
		return true
	case "vacolor":
		k.VA = "color"
		return true
	case "vacolo":
		k.VA = "colo"
		return true
	}
	if n, ok := strings.CutPrefix(tok, "pfq"); ok {
		if v, err := strconv.Atoi(n); err == nil && v > 0 {
			k.PFQ = v
			return true
		}
		return false
	}
	if n, ok := strings.CutPrefix(tok, "pfdec"); ok {
		if v, err := strconv.Atoi(n); err == nil && v > 0 {
			k.PFDecay = v
			return true
		}
		return false
	}
	if n, ok := strings.CutPrefix(tok, "pf"); ok {
		// "pf<n>" (default degree) or "pf<n>d<m>" (explicit degree). A
		// "d" separator with nothing behind it ("pf8d") is malformed,
		// not a default: the parser's contract is strict rejection.
		streams, degree := n, ""
		hasDegree := false
		if i := strings.IndexByte(n, 'd'); i >= 0 {
			streams, degree = n[:i], n[i+1:]
			hasDegree = true
		}
		v, err := strconv.Atoi(streams)
		if err != nil || v <= 0 {
			return false
		}
		d := 0
		if hasDegree {
			if d, err = strconv.Atoi(degree); err != nil || d <= 0 {
				return false
			}
		}
		k.PFStreams, k.PFDegree = v, d
		return true
	}
	for _, p := range []struct {
		prefix string
		dst    func(int)
		zeroOK bool // "<prefix>0" is an explicit off (stored as -1)
	}{
		{"mshr", func(v int) { k.MSHRs = v }, false},
		{"tn", func(v int) { k.Tenants = v }, false},
		{"wql", func(v int) { k.WQLow = v }, true},
		{"wqi", func(v int) { k.WQIdle = int64(v) }, true},
		{"wq", func(v int) { k.WQDrain = v }, false},
		{"win", func(v int) { k.Window = v }, false},
	} {
		if n, ok := strings.CutPrefix(tok, p.prefix); ok {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 || (v == 0 && !p.zeroOK) {
				return false
			}
			if v == 0 {
				v = -1 // the presets ship the feature on; 0 turns it off
			}
			p.dst(v)
			return true
		}
	}
	return false
}

// ParseSpec builds a backend from a spec string; ParseSpecFull also
// returns the parsed knobs so callers can pick up the vmem-level mshr
// setting the backend itself does not consume.
func ParseSpec(spec string, fixedLatency int64) (Backend, error) {
	b, _, err := ParseSpecFull(spec, fixedLatency)
	return b, err
}

// ParseSpecFull builds a backend from a spec string:
//
//	fixed[/mshr<n>][/pf<n>[d<m>]][/tn<n>][/va|vacolor|vacolo]
//	sdram[/mapping[/sched[/profile]]][/<n>ch][/wq<n>][/wql<n>]
//	     [/wqi<n>][/win<n>][/rp<name>[:<n>]][/pfq<n>][/pfdec<n>]
//	     [/qos][/mshr<n>][/pf<n>[d<m>]][/tn<n>][/va|vacolor|vacolo]
//
// Omitted sdram fields default to line/frfcfs/ddr; knob segments may
// appear anywhere after the kind. Every segment must parse: an
// unrecognized or misspelled token (say "msrh8") is an error, never
// silently dropped, and controller segments on the fixed kind are
// rejected rather than ignored.
func ParseSpecFull(spec string, fixedLatency int64) (Backend, Knobs, error) {
	parts := strings.Split(spec, "/")
	kind := strings.ToLower(parts[0])
	mapping, sched, prof := "", "", ""
	var knobs Knobs
	pos := 0 // next positional field: 0 mapping, 1 sched, 2 profile
	for _, tok := range parts[1:] {
		if parseKnob(tok, &knobs) {
			continue
		}
		// Positional fields are validated in place so a typo'd token is
		// diagnosed against everything a spec may contain, not just the
		// slot it happened to land in.
		var err error
		switch pos {
		case 0:
			_, err = ParseMapping(tok)
			mapping = tok
		case 1:
			_, err = ParseScheduler(tok)
			sched = tok
		case 2:
			_, err = ParsePreset(tok)
			prof = tok
		default:
			err = fmt.Errorf("all positional fields already set")
		}
		if err != nil {
			return nil, Knobs{}, fmt.Errorf(
				"unknown token %q in spec %q (want mapping line|bank|row, scheduler fcfs|frfcfs, profile ddr|hbm, or a knob: <n>ch wq<n> wql<n> wqi<n> win<n> rp<open|close|timer[:<n>]|history> pfq<n> pfdec<n> qos mshr<n> pf<n>[d<m>] tn<n> va|vacolor|vacolo)",
				tok, spec)
		}
		pos++
	}
	if kind != "sdram" {
		// Everything but the vmem-level mshr and pf knobs configures
		// the banked controller and would be dead weight on other kinds.
		ctrl := knobs
		ctrl.MSHRs, ctrl.PFStreams, ctrl.PFDegree, ctrl.Tenants = 0, 0, 0, 0
		ctrl.VA = ""
		if pos > 0 || ctrl != (Knobs{}) {
			return nil, Knobs{}, fmt.Errorf(
				"spec %q: mapping/scheduler/profile segments and controller knobs apply to the sdram kind only (mshr<n>, pf<n>[d<m>], tn<n> and va* are allowed anywhere)", spec)
		}
	}
	if kind == "sdram" {
		if mapping == "" {
			mapping = "line"
		}
		if sched == "" {
			sched = "frfcfs"
		}
	}
	b, err := BuildOpts(kind, mapping, sched, prof, knobs, fixedLatency)
	if err != nil {
		return nil, Knobs{}, err
	}
	return b, knobs, nil
}
