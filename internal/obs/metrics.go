package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry. Instruments are
// created on first use and live for the registry's lifetime; the
// returned handles are safe to share across ranks (all updates are
// atomic). A nil *Registry is the valid disabled registry: lookups
// return nil handles whose update methods are no-ops, so hot paths can
// pre-resolve instruments unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log₂ buckets: bucket i counts
// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 counts v ≤ 1,
// including non-positive values).
const histBuckets = 64

// Histogram accumulates int64 observations into log₂ buckets alongside
// count, sum, min and max, all maintained atomically. Construct via
// Registry.Histogram (the zero value has unseeded extrema).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // seeded to MaxInt64; valid once count > 0
	max     atomic.Int64 // seeded to MinInt64; valid once count > 0
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its log₂ bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// BucketBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the last bucket).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << i
}

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Mean returns the running mean of all observations (0 on nil or when
// empty). Allocation-free: two atomic loads.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// MaxOverMean returns max/mean, the imbalance proxy HistogramSnapshot
// exposes as max_over_mean, without building a snapshot (0 on nil, when
// empty, or when the mean is 0). Allocation-free.
func (h *Histogram) MaxOverMean() float64 {
	mean := h.Mean()
	if mean == 0 {
		return 0
	}
	return float64(h.max.Load()) / mean
}

// HistogramSnapshot is a frozen histogram: count, sum, extrema, mean,
// the nonzero log₂ buckets, and the max/mean ratio — for per-rank
// per-step phase times this ratio is the imbalance proxy the paper's
// boundary-effect discussion reasons about.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	MaxOver float64          `json:"max_over_mean"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one nonzero log₂ bucket: Le is the inclusive upper
// bound, Count the observations that fell at or below it but above the
// previous bound.
type BucketSnapshot struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot freezes the histogram. Concurrent Observe calls may be
// partially visible; the snapshot is internally consistent enough for
// reporting (count/sum read first).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = float64(s.Sum) / float64(s.Count)
		if s.Mean != 0 {
			s.MaxOver = float64(s.Max) / s.Mean
		}
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketSnapshot{Le: BucketBound(i), Count: n})
		}
	}
	return s
}

// Snapshot is a frozen, JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes every instrument in the registry. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for n, h := range r.histograms {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// JSON serializes the snapshot with stable (sorted) key order.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Names returns the sorted instrument names of a snapshot section; used
// by table printers wanting deterministic output.
func Names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
