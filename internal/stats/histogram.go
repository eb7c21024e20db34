package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// histBuckets is the bucket count: bucket 0 holds values <= 0, bucket
// i >= 1 holds [2^(i-1), 2^i). 64 buckets cover every positive int64.
const histBuckets = 64

// Histogram is a log-2-bucketed latency histogram. The zero value is
// ready to use; Observe on a nil *Histogram is a no-op, so a subsystem
// can hold an optional histogram pointer and observe unconditionally.
// Not safe for concurrent use, matching the rest of the simulator.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf returns the bucket index for v: 0 for v <= 0, else
// 1 + floor(log2(v)) — i.e. bits.Len64 of the value.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Negative values clamp to the <=0 bucket
// and contribute 0 to the sum (a negative latency is a measurement
// bug, not a distribution point — min still records it so it shows).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	if v > 0 {
		h.sum += uint64(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// HistBucket is one non-empty bucket of a snapshot: the inclusive
// value range [Lo, Hi] and its observation count.
type HistBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a histogram reading: sparse non-empty buckets in
// ascending order plus the scalar summary.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (int64, int64) {
	if i == 0 {
		return 0, 0 // the <=0 bucket reports as [0,0]
	}
	lo := int64(1) << (i - 1)
	if i == histBuckets {
		// unreachable by construction (bits.Len64 of a positive int64
		// is at most 63), kept for bound safety
		return lo, 1<<63 - 1
	}
	hi := int64(1)<<i - 1
	if i == 63 {
		hi = 1<<63 - 1
	}
	return lo, hi
}

// Snapshot returns the histogram's current reading.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return s
}

// Mean returns the average of the positive observations over the total
// count (0 for an empty histogram).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket holding that rank, clamped to the
// observed max. q <= 0 returns the min, q >= 1 the max.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum > rank {
			hi := b.Hi
			if hi > s.Max {
				hi = s.Max
			}
			if hi < s.Min {
				hi = s.Min
			}
			return hi
		}
	}
	return s.Max
}

// String renders the scalar summary momsim's report uses:
// "n=… mean=… p50=… p95=… max=…".
func (s HistSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50<=%d p95<=%d max=%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.95), s.Max)
	return b.String()
}

// String summarizes the live histogram (snapshot form).
func (h *Histogram) String() string { return h.Snapshot().String() }
