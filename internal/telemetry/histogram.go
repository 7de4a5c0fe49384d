package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets covers durations from 1ns up to ~9.2 minutes (2^39 ns) in
// log₂ steps; anything longer lands in the final bucket.
const numBuckets = 40

// Histogram is a lock-free latency histogram: log₂-spaced buckets of
// atomic counters. Bucket i counts samples whose duration in nanoseconds
// has bit length i, i.e. d in [2^(i-1), 2^i); bucket 0 counts
// non-positive samples. The zero value is ready to use, and a nil
// *Histogram ignores observations, so instrumented code never branches
// on configuration.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds, high-water mark
	buckets [numBuckets]atomic.Int64
}

// Observe records one duration. It is atomic, allocation-free, and a
// no-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
// Concurrent Observe calls may tear across buckets; each individual
// counter is consistent, which is all a monitoring read needs.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Max     time.Duration
	Buckets [numBuckets]int64
}

// Snapshot copies the histogram's counters; safe on a nil receiver
// (returns a zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// bucketBound returns bucket i's inclusive upper bound in nanoseconds.
func bucketBound(i int) float64 {
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// recorded durations, at the histogram's 2× bucket resolution.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			b := bucketBound(i)
			if math.IsInf(b, 1) || time.Duration(b) > s.Max {
				return s.Max
			}
			return time.Duration(b)
		}
	}
	return s.Max
}

// Summary condenses a snapshot into the few numbers a report wants.
// Times are in milliseconds for direct JSON readability.
type Summary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Summary computes the snapshot's summary statistics.
func (s HistogramSnapshot) Summary() Summary {
	out := Summary{Count: s.Count}
	if s.Count == 0 {
		return out
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out.MeanMS = ms(s.Sum) / float64(s.Count)
	out.P50MS = ms(s.Quantile(0.50))
	out.P90MS = ms(s.Quantile(0.90))
	out.P99MS = ms(s.Quantile(0.99))
	out.MaxMS = ms(s.Max)
	return out
}

// HistogramVec is a histogram family partitioned by one label (per-host,
// per-job). Hot paths call With once and keep the returned *Histogram;
// With itself takes a mutex and is not for per-sample use. A nil
// *HistogramVec returns nil histograms, which ignore observations.
type HistogramVec struct {
	label string

	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewHistogramVec builds a standalone vector partitioned by the named
// label; Registry.HistogramVec is the registered variant.
func NewHistogramVec(label string) *HistogramVec {
	return &HistogramVec{label: label, hists: make(map[string]*Histogram)}
}

// With returns the histogram for one label value, creating it on first
// use. Nil-safe: a nil vector yields a nil (inert) histogram.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.hists[value]
	if h == nil {
		h = &Histogram{}
		v.hists[value] = h
	}
	return h
}

// snapshot returns the vector's series sorted by label value.
func (v *HistogramVec) snapshot() []histSeries {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	values := make([]string, 0, len(v.hists))
	for val := range v.hists {
		values = append(values, val)
	}
	hists := make([]*Histogram, len(values))
	for i, val := range values {
		hists[i] = v.hists[val]
	}
	v.mu.Unlock()

	out := make([]histSeries, len(values))
	for i := range values {
		out[i] = histSeries{labels: []Label{{v.label, values[i]}}, snap: hists[i].Snapshot()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels[0].Value < out[j].labels[0].Value })
	return out
}
