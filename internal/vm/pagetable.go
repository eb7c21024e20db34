package vm

import "fmt"

// PageTable is a multi-level forward-mapped page table: each level
// consumes bitsPerLevel bits of the virtual page number, interior
// nodes hold child pointers, and the leaf level holds physical page
// numbers. Nodes allocate lazily, so a sparse address space costs
// memory proportional to what is actually mapped — but the walk depth
// the timing model charges is always the full level count, exactly as
// the hardware walker would pay it.
type PageTable struct {
	levels int
	bits   uint
	root   *ptNode
}

type ptNode struct {
	kids []*ptNode // interior levels
	pte  []uint64  // leaf level; ppn+1, 0 = unmapped
}

// NewPageTable builds an empty table of the given depth and radix.
func NewPageTable(levels int, bitsPerLevel uint) *PageTable {
	if levels < 1 || bitsPerLevel < 1 || uint(levels)*bitsPerLevel > 52 {
		panic(fmt.Sprintf("vm: unusable page-table shape %d levels x %d bits", levels, bitsPerLevel))
	}
	return &PageTable{levels: levels, bits: bitsPerLevel, root: &ptNode{}}
}

// VPNBits is the number of virtual-page-number bits the table resolves.
func (pt *PageTable) VPNBits() uint { return uint(pt.levels) * pt.bits }

// index extracts the level-i radix index of vpn (level 0 is the root).
func (pt *PageTable) index(vpn uint64, level int) uint64 {
	shift := pt.bits * uint(pt.levels-1-level)
	return (vpn >> shift) & (uint64(1)<<pt.bits - 1)
}

// walk descends to the leaf node covering vpn, allocating interior
// nodes when create is set; it returns nil otherwise.
func (pt *PageTable) walk(vpn uint64, create bool) *ptNode {
	if vpn>>pt.VPNBits() != 0 {
		panic(fmt.Sprintf("vm: virtual page %#x beyond the %d-bit table", vpn, pt.VPNBits()))
	}
	n := pt.root
	for level := 0; level < pt.levels-1; level++ {
		if n.kids == nil {
			if !create {
				return nil
			}
			n.kids = make([]*ptNode, 1<<pt.bits)
		}
		i := pt.index(vpn, level)
		if n.kids[i] == nil {
			if !create {
				return nil
			}
			n.kids[i] = &ptNode{}
		}
		n = n.kids[i]
	}
	if n.pte == nil {
		if !create {
			return nil
		}
		n.pte = make([]uint64, 1<<pt.bits)
	}
	return n
}

// Map installs vpn → ppn; mapping an already-mapped page panics (each
// mapping holds a page claimed from the pool, so silently replacing a
// translation would leak one).
func (pt *PageTable) Map(vpn, ppn uint64) {
	leaf := pt.walk(vpn, true)
	i := pt.index(vpn, pt.levels-1)
	if leaf.pte[i] != 0 {
		panic(fmt.Sprintf("vm: virtual page %#x is already mapped", vpn))
	}
	leaf.pte[i] = ppn + 1
}

// Lookup resolves vpn without side effects.
func (pt *PageTable) Lookup(vpn uint64) (ppn uint64, ok bool) {
	leaf := pt.walk(vpn, false)
	if leaf == nil {
		return 0, false
	}
	i := pt.index(vpn, pt.levels-1)
	if leaf.pte[i] == 0 {
		return 0, false
	}
	return leaf.pte[i] - 1, true
}
