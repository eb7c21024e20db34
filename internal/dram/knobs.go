package dram

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Selection is everything below the backend kind that a command line or
// a spec string chooses: the three positional spec fields and the knobs.
type Selection struct {
	Mapping, Sched, Prof string
	Knobs
}

// Knob is one row of the backend knob table: every spelling of one
// knob — its command-line flag, its spec token, its legal values and
// what it refuses to be combined with — so the flag sets of momsim and
// momexp, the spec parser and printer, and every validation message are
// loops over KnobTable rather than a line each per knob. Exactly one
// of num, on and get/set is set: a count ("<Token><n>"), a switch (the
// bare Token) or a named value ("<Token><name>"; with an empty Token,
// one of the three positional fields, taken in table order).
type Knob struct {
	Flag string // command-line name, without the dash
	Def  string // the flag's default as the command line spells it ("" = the zero value)
	Help string

	Token  string // spec spelling (see above)
	Suffix bool   // the count comes first: "<n><Token>"
	Joins  bool   // rides the previous row's segment: "pf<n>d<m>"
	Names  string // a named value's legal names, as the grammar lists them
	Bare   string // the name the Token alone stands for ("va" = "vafirst")

	// Min..Max are a count's legal values, sized so that no slice is
	// made from an unchecked flag; 0 always means "unset: keep the
	// preset's or the model's default". Pow2 restricts the count to
	// powers of two.
	Min, Max int
	Pow2     bool

	SDRAM    bool   // configures the banked controller: refused on any other kind
	Needs    string // Flag of the row this one is meaningless without ...
	NeedsMin int    // ... and the least value that row must hold (0 = just set)
	Momexp   bool   // momexp exposes the flag (it runs single-requestor cells only)

	num func(*Selection) *int
	on  func(*Selection) *bool
	get func(*Selection) string        // "" = unset
	set func(*Selection, string) error // from the flag's spelling
}

// KnobTable is the single declaration of the backend knobs, in the
// order Selection.Spec prints their segments: the sdram-only rows, then
// the rows that configure layers above the controller and so apply to
// every kind. Adding a knob is one Knobs field, one row here and, if
// the controller reads it, one line in Knobs.apply.
var KnobTable = []Knob{
	{Flag: "dmap", Def: "line", Names: "line|bank|row", SDRAM: true, Momexp: true,
		Help: "sdram address mapping: line, bank, row",
		get:  func(s *Selection) string { return s.Mapping },
		set:  func(s *Selection, v string) (err error) { s.Mapping = v; _, err = ParseMapping(v); return }},
	{Flag: "dsched", Def: "frfcfs", Names: "fcfs|frfcfs", SDRAM: true, Momexp: true,
		Help: "sdram scheduler: fcfs, frfcfs",
		get:  func(s *Selection) string { return s.Sched },
		set:  func(s *Selection, v string) (err error) { s.Sched = v; _, err = ParseScheduler(v); return }},
	{Flag: "dprof", Names: "ddr|hbm", SDRAM: true, Momexp: true,
		Help: "sdram timing profile: ddr (commodity DIMM, the default), hbm (die-stacked)",
		get:  func(s *Selection) string { return s.Prof },
		set:  func(s *Selection, v string) (err error) { s.Prof = v; _, err = ParsePreset(v); return }},
	{Flag: "dchan", Token: "ch", Suffix: true, Min: 1, Max: 64, Pow2: true, SDRAM: true, Momexp: true,
		Help: "sdram channel count override (power of two; 0 = profile default)",
		num:  func(s *Selection) *int { return &s.Channels }},
	{Flag: "rp", Token: "rp", Names: "open|close|history", SDRAM: true, Momexp: true,
		Help: "sdram per-bank row policy: open (the default), close, history",
		get:  func(s *Selection) string { return s.RP },
		set: func(s *Selection, v string) (err error) {
			s.RP = strings.ToLower(v)
			_, err = ParseRowPolicy(v)
			return
		}},
	{Flag: "qos", Token: "qos", SDRAM: true, Needs: "tenants", NeedsMin: 2,
		Help: "per-tenant credit scheduling in the sdram channel scheduler (needs -tenants >= 2)",
		on:   func(s *Selection) *bool { return &s.QoS }},

	{Flag: "mshr", Token: "mshr", Min: 1, Max: 1024, Momexp: true,
		Help: "MSHR count for the non-blocking memory pipeline (0 or 1 = the blocking model)",
		num:  func(s *Selection) *int { return &s.MSHRs }},
	{Flag: "pf", Token: "pf", Min: 1, Max: 1024, Needs: "mshr", NeedsMin: 2, Momexp: true,
		Help: "stream-prefetcher stream-table entries (0 = off; needs -mshr >= 2)",
		num:  func(s *Selection) *int { return &s.PFStreams }},
	{Flag: "pfd", Token: "d", Joins: true, Min: 1, Max: 64, Needs: "pf", Momexp: true,
		Help: "stream-prefetcher degree: lines kept in flight per stream (0 = default 4)",
		num:  func(s *Selection) *int { return &s.PFDegree }},
	{Flag: "tenants", Def: "1", Token: "tn", Min: 1, Max: MaxTenants,
		Help: "concurrent requestors sharing L2/MSHR/DRAM, each running its own instance of the kernel (1 = single-requestor simulator)",
		num:  func(s *Selection) *int { return &s.Tenants }},
	{Flag: "va", Token: "va", Names: "first|color|colo", Bare: "first", Momexp: true,
		Help: "per-requestor virtual address translation with this placement policy: first, color, colo (default: translation off)",
		get:  func(s *Selection) string { return s.VA },
		set: func(s *Selection, v string) error {
			switch v {
			case "first", "color", "colo":
				s.VA = v
				return nil
			}
			return fmt.Errorf("unknown placement policy %q (first, color, colo)", v)
		}},
}

// knobByFlag finds a row by its flag name, or nil.
func knobByFlag(name string) *Knob {
	for i := range KnobTable {
		if KnobTable[i].Flag == name {
			return &KnobTable[i]
		}
	}
	return nil
}

// String names the knob by both of its spellings, the way every
// refusal does: "-dchan / <n>ch".
func (r *Knob) String() string { return "-" + r.Flag + " / " + r.segment() }

// segment is the knob's spec segment as the token grammar writes it.
func (r *Knob) segment() string {
	switch {
	case r.on != nil:
		return r.Token
	case r.num == nil:
		return r.Token + "<" + r.Names + ">"
	case r.Joins:
		return knobByFlag(r.Needs).segment() + r.Token + "<m>"
	case r.Suffix:
		return "<n>" + r.Token
	}
	return r.Token + "<n>"
}

// isSet reports whether the selection moves the knob off "unset".
func (r *Knob) isSet(s *Selection) bool {
	switch {
	case r.num != nil:
		return *r.num(s) != 0
	case r.on != nil:
		return *r.on(s)
	}
	return r.get(s) != ""
}

// Set stores a value spelled the way the knob's flag spells it.
func (r *Knob) Set(s *Selection, v string) (err error) {
	switch {
	case r.num != nil:
		*r.num(s), err = strconv.Atoi(v)
	case r.on != nil:
		*r.on(s), err = strconv.ParseBool(v)
	default:
		err = r.set(s, v)
	}
	return err
}

// check refuses a count outside the row's range and a knob set without
// the one it needs: one message per refusal, naming flag and token.
func (r *Knob) check(s *Selection) error {
	if !r.isSet(s) {
		return nil
	}
	if r.num != nil {
		v := *r.num(s)
		if v < r.Min || v > r.Max || r.Pow2 && v&(v-1) != 0 {
			want := fmt.Sprintf("%d..%d", r.Min, r.Max)
			if r.Pow2 {
				want += ", a power of two"
			}
			return fmt.Errorf("%s: %d is out of range (want %s; 0 = unset)", r, v, want)
		}
	}
	if need := knobByFlag(r.Needs); need != nil && *need.num(s) < max(r.NeedsMin, 1) {
		return fmt.Errorf("%s needs %s of at least %d (have %d)", r, need, max(r.NeedsMin, 1), *need.num(s))
	}
	return nil
}

// parseCount reads a spec count: digits, positive.
func parseCount(val string) (int, bool) {
	v, err := strconv.Atoi(val)
	return v, err == nil && v > 0
}

// parseKnob recognizes one knob segment of a spec. The row is the one
// whose Token matches the most of tok, so a token that extends another
// row's is never read as the shorter one with a bad count; the table's
// order does not matter.
func parseKnob(tok string, s *Selection) bool {
	at := -1
	for i := range KnobTable {
		k := &KnobTable[i]
		if k.Token != "" && !k.Joins && (at < 0 || len(k.Token) > len(KnobTable[at].Token)) &&
			(k.Suffix && strings.HasSuffix(tok, k.Token) || !k.Suffix && strings.HasPrefix(tok, k.Token)) {
			at = i
		}
	}
	if at < 0 {
		return false
	}
	r := &KnobTable[at]
	val := tok[len(r.Token):]
	if r.Suffix {
		val = tok[:len(tok)-len(r.Token)]
	}
	switch {
	case r.on != nil:
		*r.on(s) = val == ""
		return val == ""
	case r.get != nil:
		if val == "" {
			val = r.Bare
		}
		return r.set(s, val) == nil
	}
	// A count, and behind it the count of the next row if that one joins
	// this segment ("pf8d4"). A separator with nothing behind it is
	// malformed, not a default.
	if at+1 < len(KnobTable) && KnobTable[at+1].Joins {
		j := &KnobTable[at+1]
		if head, jval, found := strings.Cut(val, j.Token); found {
			v, ok := parseCount(jval)
			if !ok {
				return false
			}
			*j.num(s), val = v, head
		}
	}
	v, ok := parseCount(val)
	*r.num(s) = v
	return ok
}

// Spec renders the selection as the spec string of a backend kind: the
// kind, then one segment per set knob in table order.
func (s *Selection) Spec(kind string) string {
	kind = strings.ToLower(kind)
	sdram := kind == "sdram"
	var buf [96]byte
	b := append(buf[:0], kind...)
	printed := false // the previous row printed: a joining row may ride it
	for i := range KnobTable {
		r := &KnobTable[i]
		rides := r.Joins && printed
		printed = false
		// A named value with a default is never unset, so its segment
		// always prints: the mapping and scheduler slots stay filled and
		// a profile behind them lands in its own.
		if r.SDRAM && !sdram || r.Joins && !rides || !r.isSet(s) && (r.get == nil || r.Def == "") {
			continue
		}
		if printed = true; !r.Joins {
			b = append(b, '/')
		}
		if !r.Suffix {
			b = append(b, r.Token...)
		}
		switch {
		case r.num != nil:
			b = strconv.AppendInt(b, int64(*r.num(s)), 10)
		case r.get != nil:
			if v := r.get(s); v != r.Bare {
				b = append(b, strings.ToLower(v)...)
			}
		}
		if r.Suffix {
			b = append(b, r.Token...)
		}
	}
	return string(b)
}

// Flags is one command line's backend flags, declared from KnobTable.
type Flags struct {
	fs  *flag.FlagSet
	sel Selection // counts and switches parse straight into it
	raw []*string // named values, by table row, wait for Read
}

// RegisterFlags declares one flag per table row on fs — for momexp, the
// rows it exposes — with the row's name, default and help text.
func RegisterFlags(fs *flag.FlagSet, momexp bool) *Flags {
	f := &Flags{fs: fs, raw: make([]*string, len(KnobTable))}
	for i := range KnobTable {
		r := &KnobTable[i]
		switch {
		case momexp && !r.Momexp:
		case r.num != nil:
			def, _ := strconv.Atoi(r.Def)
			fs.IntVar(r.num(&f.sel), r.Flag, def, r.Help)
		case r.on != nil:
			fs.BoolVar(r.on(&f.sel), r.Flag, false, r.Help)
		default:
			f.raw[i] = fs.String(r.Flag, r.Def, r.Help)
		}
	}
	return f
}

// Given reports whether the parsed command line set any knob flag.
func (f *Flags) Given() (given bool) {
	f.fs.Visit(func(fl *flag.Flag) { given = given || knobByFlag(fl.Name) != nil })
	return given
}

// Read returns what the parsed command line selected for a backend of
// the given kind. An explicitly set flag that kind would silently
// ignore is refused, as is a named value that does not parse and a
// count outside its row's range or without the knob it needs, so what
// Read returns prints (Selection.Spec) as a spec that parses.
func (f *Flags) Read(kind string) (Selection, error) {
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if r := knobByFlag(fl.Name); r != nil && r.SDRAM && strings.ToLower(kind) != "sdram" && err == nil {
			err = fmt.Errorf("-%s configures the banked controller; it requires -dram sdram", r.Flag)
		}
	})
	for i, v := range f.raw {
		if v != nil && *v != "" && err == nil {
			err = KnobTable[i].Set(&f.sel, *v)
		}
		if err == nil {
			err = KnobTable[i].check(&f.sel)
		}
	}
	return f.sel, err
}
