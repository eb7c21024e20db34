package vm

// TLB is a set-associative translation buffer with true-LRU
// replacement inside each set. Tags are opaque: the private L1 TLBs
// tag by virtual page number alone, the shared L2 TLB folds the tenant
// into the tag (and so models cross-tenant set contention). Lookups
// touch LRU state, so callers must only look up when the access model
// says the hardware would — the issue path guarantees one touch per
// page per instruction.
type TLB struct {
	sets, ways int
	ent        []tlbEntry
	tick       int64
}

type tlbEntry struct {
	tag   uint64
	ppn   uint64
	used  int64
	valid bool
}

// NewTLB builds a sets × ways TLB; sets must be a power of two.
func NewTLB(sets, ways int) *TLB {
	if sets < 1 || sets&(sets-1) != 0 || ways < 1 {
		panic("vm: TLB geometry must be power-of-two sets x ways >= 1")
	}
	return &TLB{sets: sets, ways: ways, ent: make([]tlbEntry, sets*ways)}
}

func (t *TLB) set(tag uint64) []tlbEntry {
	i := int(tag) & (t.sets - 1)
	return t.ent[i*t.ways : (i+1)*t.ways]
}

// Lookup probes for tag, refreshing its LRU position on a hit.
func (t *TLB) Lookup(tag uint64) (ppn uint64, ok bool) {
	set := t.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			t.tick++
			set[i].used = t.tick
			return set[i].ppn, true
		}
	}
	return 0, false
}

// Insert installs tag → ppn, evicting the set's LRU entry if the set
// is full; it reports whether a valid entry was displaced.
func (t *TLB) Insert(tag, ppn uint64) (evicted bool) {
	set := t.set(tag)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			victim = i // refresh in place
			goto place
		}
	}
	for i := range set {
		if !set[i].valid {
			victim = i
			goto place
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	evicted = true
place:
	t.tick++
	set[victim] = tlbEntry{tag: tag, ppn: ppn, used: t.tick, valid: true}
	return evicted
}
