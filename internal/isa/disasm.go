package isa

import (
	"fmt"
	"strings"
)

// String renders the dynamic instruction in a readable assembly-like
// syntax, including the dynamic address for memory operations.
func (in *Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s ", in.mnemonic())
	var ops []string
	if in.Dst.Valid() {
		ops = append(ops, in.Dst.String())
	}
	if in.Src1.Valid() {
		ops = append(ops, in.Src1.String())
	}
	if in.Src2.Valid() {
		ops = append(ops, in.Src2.String())
	}
	if in.Op.HasImm() {
		ops = append(ops, fmt.Sprintf("#%d", in.Imm))
	}
	b.WriteString(strings.Join(ops, ", "))
	switch in.Kind {
	case KindScalarMem:
		fmt.Fprintf(&b, " [0x%x]%s", in.Addr, storeMark(in.IsStore))
	case KindUSIMDMem:
		fmt.Fprintf(&b, " [0x%x]%s", in.Addr, storeMark(in.IsStore))
	case KindMOMMem:
		fmt.Fprintf(&b, " [0x%x] vl=%d vs=%d%s", in.Addr, in.VL, in.Stride, storeMark(in.IsStore))
	case Kind3DLoad:
		fmt.Fprintf(&b, " [0x%x] vl=%d vs=%d w=%d b=%v", in.Addr, in.VL, in.Stride, in.Width, in.Back)
	case Kind3DMove:
		fmt.Fprintf(&b, " %s ps=%d vl=%d", in.Ptr, in.PtrStep, in.VL)
	case KindMOM:
		fmt.Fprintf(&b, " vl=%d", in.VL)
	case KindBranch:
		if in.Taken {
			b.WriteString(" taken")
		} else {
			b.WriteString(" not-taken")
		}
	}
	return b.String()
}

func (in *Inst) mnemonic() string {
	name := in.Op.Name()
	switch in.Kind {
	case KindMOM, KindMOMMem:
		if in.Op.IsPacked() || in.Op == OpVLoad || in.Op == OpVStore {
			return "mom." + name
		}
	}
	return name
}

func storeMark(st bool) string {
	if st {
		return " (st)"
	}
	return ""
}
