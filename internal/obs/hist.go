package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout, HDR-histogram style: 2^subBits linear
// sub-buckets per power-of-two octave. Values are nanoseconds. Buckets
// 0..15 are exact (1 ns resolution); above that a bucket spans
// 1/16th of its octave, so a reported quantile overstates the true
// value by at most 6.25%. The layout is identical for every Histogram,
// which is what makes snapshots mergeable bucket-by-bucket.
// The top octave is e=62 (values up to MaxInt64 = 2^63-1), so the
// final bucket's upper bound is exactly MaxInt64 and nothing
// overflows.
const (
	subBits    = 4
	subBuckets = 1 << subBits                // 16
	numBuckets = (64 - subBits) * subBuckets // 960
)

// bucketOf maps a nanosecond value to its bucket index. Negative
// values clamp to bucket 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	e := bits.Len64(u) - 1 // floor(log2), >= subBits here
	return subBuckets + (e-subBits)*subBuckets + int((u>>uint(e-subBits))-subBuckets)
}

// bucketUpper returns the largest nanosecond value mapping to bucket i
// — the bound quantile extraction and the Prometheus "le" label report.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	q := (i - subBuckets) / subBuckets
	r := (i - subBuckets) % subBuckets
	lower := uint64(subBuckets+r) << uint(q)
	return int64(lower + 1<<uint(q) - 1)
}

// Histogram is a lock-free log-linear histogram of durations. Record
// is three atomic adds; Snapshot is a read-only copy safe to merge,
// subtract, and query for quantiles. The zero value is NOT ready to
// use — obtain histograms from a Registry (or NewHistogram in tests).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns a standalone histogram not attached to any
// registry — handy for tests and for transient aggregation (the
// simulator's latency distribution).
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// RecordValue adds one raw nanosecond observation.
func (h *Histogram) RecordValue(ns int64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(ns)
	}
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of the recorded durations; with Count it gives
// an owner's Stats a lifetime mean without copying the buckets.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// absorb adds o's observations into h (a retired registry's history
// folding into the view that included it).
func (h *Histogram) absorb(o *Histogram) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Snapshot copies the current bucket state. Under concurrent Record
// the copy is not a single atomic cut — counts may be off by the
// handful of records in flight — but every recorded value lands in
// exactly one snapshot eventually, and totals are exact once writers
// quiesce.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]uint64, numBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Snapshots
// from different histograms (or different times) share the same bucket
// layout, so they merge and subtract bucket-by-bucket.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets []uint64
}

// Merge adds other's observations into s (s is modified in place).
// An empty (zero) snapshot is a valid merge target.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if s.Buckets == nil {
		s.Buckets = make([]uint64, numBuckets)
	}
	s.Count += other.Count
	s.Sum += other.Sum
	for i, c := range other.Buckets {
		s.Buckets[i] += c
	}
}

// Sub returns the observations recorded between prev and s — the
// windowed delta the autoscaler feeds on. Racing snapshots can make
// individual buckets appear to run backwards by an in-flight record
// or two; those clamp to zero.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Buckets: make([]uint64, numBuckets)}
	if s.Count > prev.Count {
		d.Count = s.Count - prev.Count
	}
	if s.Sum > prev.Sum {
		d.Sum = s.Sum - prev.Sum
	}
	for i := range d.Buckets {
		var p uint64
		if prev.Buckets != nil {
			p = prev.Buckets[i]
		}
		var c uint64
		if s.Buckets != nil {
			c = s.Buckets[i]
		}
		if c > p {
			d.Buckets[i] = c - p
		}
	}
	return d
}

// Total is the number of observations accounted to buckets. It is the
// denominator quantile extraction uses (Count can lag under races).
func (s HistogramSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Buckets {
		n += c
	}
	return n
}

// Mean returns the average recorded duration, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of
// the recorded values: the upper edge of the bucket holding the
// ceil(q*n)-th smallest observation. Exact below 16 ns, within 6.25%
// above. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}

// P50, P99, P999 are the quantiles the serving layers report.
func (s HistogramSnapshot) P50() time.Duration  { return s.Quantile(0.50) }
func (s HistogramSnapshot) P99() time.Duration  { return s.Quantile(0.99) }
func (s HistogramSnapshot) P999() time.Duration { return s.Quantile(0.999) }
