// Package knobtest is test support for fuzzing machines rather than
// parsers: it turns fuzz bytes into a backend selection dram.KnobTable
// admits. It is imported by tests only (core's FuzzMachine, tenant's
// FuzzGroup).
package knobtest

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dram"
)

// Pick turns fuzz bytes into a backend selection that stays inside
// every row of dram.KnobTable: two bytes per row pick its value (zero =
// unset, all ones = the row's maximum or last name), and whatever a set
// row needs is raised to the least value it needs.
func Pick(t testing.TB, pick []byte, sdram bool) dram.Selection {
	byFlag := map[string]*dram.Knob{}
	val := map[string]string{} // by flag, as the flag spells it
	for i := range dram.KnobTable {
		r := &dram.KnobTable[i]
		byFlag[r.Flag] = r
		if 2*i+1 >= len(pick) || r.SDRAM && !sdram {
			continue
		}
		v := int(binary.LittleEndian.Uint16(pick[2*i:]))
		switch {
		case v == 0:
		case r.Max == 0 && r.Names == "": // a switch
			val[r.Flag] = "true"
		case r.Max == 0: // a named value
			names := strings.Split(r.Names, "|")
			val[r.Flag] = names[min(v-1, len(names)-1)]
		default: // a count
			n := r.Max
			if v != 0xFFFF {
				n = r.Min + (v-1)%(r.Max-r.Min+1)
			}
			if r.Pow2 {
				n = 1 << (bits.Len(uint(n)) - 1)
			}
			val[r.Flag] = strconv.Itoa(n)
		}
	}
	for flag := range val {
		for k := byFlag[flag]; k.Needs != ""; k = byFlag[k.Needs] {
			if have, _ := strconv.Atoi(val[k.Needs]); have < max(k.NeedsMin, 1) {
				val[k.Needs] = strconv.Itoa(max(k.NeedsMin, 1))
			}
		}
	}
	sel := dram.Selection{Mapping: "line", Sched: "frfcfs"}
	for flag, v := range val {
		if err := byFlag[flag].Set(&sel, v); err != nil {
			t.Fatalf("%s: a value from the row's own range does not set: %v", byFlag[flag], err)
		}
	}
	return sel
}
