package dram

import (
	"strconv"
	"strings"
	"testing"
)

// The tests in this file are generated from KnobTable: a new row is
// covered by all of them without being named in any.

// rowValues lists a row's values worth trying, as its flag spells them:
// a count's minimum, maximum and an interior value, a switch's on, every
// name of a named value.
func rowValues(r *Knob) []string {
	switch {
	case r.num != nil:
		mid := (r.Min + r.Max) / 2
		for r.Pow2 && mid&(mid-1) != 0 {
			mid &= mid - 1 // clear low bits down to a power of two
		}
		return []string{strconv.Itoa(r.Min), strconv.Itoa(mid), strconv.Itoa(r.Max)}
	case r.on != nil:
		return []string{"true"}
	}
	return strings.Split(r.Names, "|")
}

// selectionWith sets one row to v on top of the defaults, together with
// whatever the row needs: the knobs its Needs chain names.
func selectionWith(t *testing.T, r *Knob, v string) Selection {
	t.Helper()
	sel := Selection{Mapping: "line", Sched: "frfcfs"}
	if err := r.Set(&sel, v); err != nil {
		t.Fatalf("%s: Set(%q): %v", r, v, err)
	}
	for k := r; k.Needs != ""; {
		need := knobByFlag(k.Needs)
		if *need.num(&sel) < max(k.NeedsMin, 1) {
			*need.num(&sel) = max(k.NeedsMin, 1)
		}
		k = need
	}
	return sel
}

// TestKnobRowsRoundTrip: for every row, its minimum, maximum and an
// interior value print to a spec that parses back to the same knobs and
// builds the same backend — on sdram, and on fixed for the rows that
// configure layers above the controller.
func TestKnobRowsRoundTrip(t *testing.T) {
	for i := range KnobTable {
		r := &KnobTable[i]
		for _, v := range rowValues(r) {
			for _, kind := range []string{"sdram", "fixed"} {
				if r.SDRAM && kind != "sdram" {
					continue
				}
				sel := selectionWith(t, r, v)
				want, err := sel.Build(kind, 100)
				if err != nil {
					t.Errorf("%s = %s on %s: %v", r, v, kind, err)
					continue
				}
				spec := sel.Spec(kind)
				got, knobs, err := ParseSpecFull(spec, 100)
				if err != nil {
					t.Errorf("%s = %s: spec %q does not parse back: %v", r, v, spec, err)
					continue
				}
				if knobs != sel.Knobs {
					t.Errorf("%s = %s: spec %q parsed to %+v, want %+v", r, v, spec, knobs, sel.Knobs)
				}
				if got.Name() != want.Name() {
					t.Errorf("%s = %s: spec %q builds %s, want %s", r, v, spec, got.Name(), want.Name())
				}
			}
		}
	}
}

// TestKnobRangesRefuse: one past either end of every count's range is
// an error naming the knob by flag and token — from Build, so from both
// commands' flags and from ParseSpecFull alike — and never a panic or
// an allocation sized by the value.
func TestKnobRangesRefuse(t *testing.T) {
	for i := range KnobTable {
		r := &KnobTable[i]
		if r.num == nil {
			continue
		}
		for _, v := range []int{-2, r.Max + 1, 1 << 62} {
			sel := selectionWith(t, r, strconv.Itoa(v))
			_, err := sel.Build("sdram", 100)
			if err == nil || !strings.Contains(err.Error(), r.String()) || !strings.Contains(err.Error(), strconv.Itoa(r.Max)) {
				t.Errorf("%s = %d: Build = %v, want an error naming the knob and its range", r, v, err)
			}
			if v > 0 {
				if _, _, err := ParseSpecFull(sel.Spec("sdram"), 100); err == nil {
					t.Errorf("%s = %d: spec %q was accepted", r, v, sel.Spec("sdram"))
				}
			}
		}
	}
}

// TestKnobTokensNeverMisSplit: no two rows share a token, and where one
// row's token is a prefix of another's, a segment of the longer never
// lands in the shorter's knob — by construction, since parseKnob takes
// the longest match, not by the order of the rows.
func TestKnobTokensNeverMisSplit(t *testing.T) {
	seen := map[string]string{}
	for i := range KnobTable {
		long := &KnobTable[i]
		if long.Token == "" {
			continue
		}
		if prev, dup := seen[long.Token]; dup && !long.Joins {
			t.Errorf("-%s and -%s share the token %q", prev, long.Flag, long.Token)
		}
		seen[long.Token] = long.Flag
		for j := range KnobTable {
			short := &KnobTable[j]
			if i == j || short.Token == "" || short.Joins || long.Joins || !strings.HasPrefix(long.Token, short.Token) {
				continue
			}
			var sel Selection
			spec := selectionWithOnly(long).Spec("sdram")
			tok := spec[strings.LastIndex(spec, "/")+1:]
			if !parseKnob(tok, &sel) || !long.isSet(&sel) || short.isSet(&sel) {
				t.Errorf("segment %q of %s parsed to %+v: it must set that knob and leave %s alone", tok, long, sel, short)
			}
		}
	}
}

// selectionWithOnly sets just one row, to its smallest value.
func selectionWithOnly(r *Knob) *Selection {
	var sel Selection
	_ = r.Set(&sel, rowValues(r)[0]) // the table's own value parses
	return &sel
}
