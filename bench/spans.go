package main

import "time"

// span is one interval of host time at a layer boundary. Calls into a
// layer are far too many to keep one span each (an Emit per
// instruction), so the wrappers fold all calls of one layer from one
// parent within one probe into a single span: Start and End bracket
// the first and last call, BusyNs is the time actually spent inside
// them. For a span of a single call BusyNs is End − Start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Probe   string `json:"probe,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the traced pass began
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls"`
	BusyNs  int64  `json:"busy_ns"`
}

// recorder keeps spans in memory until the traced pass ends.
type recorder struct {
	epoch time.Time
	spans []span
}

// single records a span of one call and returns its ID for children to
// name.
func (rc *recorder) single(parent int, probe, name string, start, end time.Time) int {
	rc.spans = append(rc.spans, span{ID: len(rc.spans) + 1, Parent: parent, Probe: probe, Name: name,
		StartNs: start.Sub(rc.epoch).Nanoseconds(), EndNs: end.Sub(rc.epoch).Nanoseconds(),
		Calls: 1, BusyNs: end.Sub(start).Nanoseconds()})
	return len(rc.spans)
}

// extend moves the end of a single-call span that was recorded before
// its children, so that they could name it.
func (rc *recorder) extend(id int, end time.Time) {
	s := &rc.spans[id-1]
	s.EndNs = end.Sub(rc.epoch).Nanoseconds()
	s.BusyNs = s.EndNs - s.StartNs
}

// fold records every call a wrapper timed as one span; a wrapper that
// was never entered leaves none.
func (rc *recorder) fold(parent int, probe, name string, t callTimer) int {
	if t.calls == 0 {
		return 0
	}
	id := rc.single(parent, probe, name, t.first, t.last)
	rc.spans[id-1].Calls, rc.spans[id-1].BusyNs = t.calls, t.ns
	return id
}

// selfNs is each span's own host time: its busy time minus what its
// direct children cover. A Submit entered from inside Issue is a child
// of the vmem.issue span and comes off vmem's self time; one entered
// from a Pending poll is a child of core.simulate and comes off the
// core's.
//
// timerNs is the calibrated cost of one clock read. A timed call reads
// the clock twice: about one read lands inside the measured interval
// and the whole pair inside the parent's, so each span gives back one
// read per call and takes one more read per child call off its parent.
func selfNs(spans []span, timerNs float64) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		paid := float64(s.Calls) * timerNs
		self[s.ID] += float64(s.BusyNs) - paid
		if s.Parent != 0 {
			self[s.Parent] -= float64(s.BusyNs) + paid
		}
	}
	return self
}
