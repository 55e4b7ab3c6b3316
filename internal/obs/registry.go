package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metric registry: the one place every number a run publishes lives,
// read by every exporter (the JSONL/Chrome metrics record, WriteMetrics,
// the Prometheus exposition in internal/telemetry). It holds counters
// registered once at package init and incremented from hot paths with a
// single atomic op, and labeled series and histograms created on first
// use through lock-free lookups. Every recording entry point is skipped
// entirely — one atomic load — while collection is disabled.

var registry struct {
	mu       sync.Mutex
	counters []*Counter
	floats   []*FloatCounter
	series   sync.Map // rendered name{labels} -> *seriesCell
	hists    sync.Map // rendered name{labels} -> *histCell
}

// Counter is a monotonically increasing integer metric (flops, bytes
// moved, GEMM calls, messages).
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers and returns a counter. Registering the same name
// twice returns distinct counters whose values are reported separately;
// callers should register at package init so names stay unique.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	registry.mu.Lock()
	registry.counters = append(registry.counters, c)
	registry.mu.Unlock()
	return c
}

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric (modeled
// seconds). Adds are lock-free compare-and-swap on the bit pattern.
type FloatCounter struct {
	name string
	bits atomic.Uint64
}

// NewFloatCounter registers and returns a float counter.
func NewFloatCounter(name string) *FloatCounter {
	c := &FloatCounter{name: name}
	registry.mu.Lock()
	registry.floats = append(registry.floats, c)
	registry.mu.Unlock()
	return c
}

// Add increments the counter by v when collection is enabled.
func (c *FloatCounter) Add(v float64) {
	if !enabled.Load() {
		return
	}
	atomicAddFloat(&c.bits, v)
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Label is one key/value dimension on a series.
type Label struct {
	Key, Value string
}

// seriesCell is a timeseries cell, labeled or not: last value, observation
// count and running sum, all updated with atomics so concurrent
// recorders never contend on a lock. A last-value gauge (the latest SVD
// truncation error, the current ITE energy) is a series read at Last.
type seriesCell struct {
	name     string
	labels   []Label
	count    atomic.Int64
	sumBits  atomic.Uint64
	lastBits atomic.Uint64
}

func (s *seriesCell) observe(v float64) {
	s.lastBits.Store(math.Float64bits(v))
	atomicAddFloat(&s.sumBits, v)
	s.count.Add(1)
}

// histCell is a fixed-bucket histogram (bond dimensions, truncation errors,
// solver sweeps). Buckets hold per-bucket counts; the Prometheus
// renderer cumulates them into the le convention at scrape time.
type histCell struct {
	name    string
	labels  []Label
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Pow2Bounds buckets small positive integers (bond dimensions, sweep
// counts) at powers of two.
var Pow2Bounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// LogBounds buckets relative errors (truncation discarded weight) at
// decades from 1e-16 to 1.
var LogBounds = []float64{1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// seriesKey renders the registry key: name plus labels in given order.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	b := append(make([]byte, 0, 64), name...)
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, l.Key...), '='), l.Value...)
	}
	return string(append(b, '}'))
}

// Observe records v into the named series (created on first use): its
// last value becomes v, and v is folded into the count and sum. One
// atomic load while collection is disabled.
func Observe(name string, v float64, labels ...Label) {
	if !enabled.Load() {
		return
	}
	key := seriesKey(name, labels)
	s, ok := registry.series.Load(key)
	if !ok {
		s, _ = registry.series.LoadOrStore(key, &seriesCell{name: name, labels: append([]Label(nil), labels...)})
	}
	s.(*seriesCell).observe(v)
}

// ObserveHist records v into the first bucket of the named histogram
// whose upper bound contains it. Bounds are fixed when the histogram is
// created; later calls with different bounds reuse the original.
func ObserveHist(name string, bounds []float64, v float64, labels ...Label) {
	if !enabled.Load() {
		return
	}
	key := seriesKey(name, labels)
	e, ok := registry.hists.Load(key)
	if !ok {
		e, _ = registry.hists.LoadOrStore(key, &histCell{name: name, labels: append([]Label(nil), labels...),
			bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)})
	}
	h := e.(*histCell)
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1) // first bound >= v
	atomicAddFloat(&h.sumBits, v)
	h.count.Add(1)
}

// MetricValue is one counter of a registry snapshot, or one entry of the
// flat Metrics list.
type MetricValue struct {
	Name  string
	Value float64
	// Kind is "counter", "float", or "gauge".
	Kind string
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Last   float64
	Sum    float64
	Count  int64
}

// HistSnapshot is one histogram's state at snapshot time; Buckets are
// per-bucket (non-cumulative) counts aligned with Bounds plus a final
// +Inf bucket.
type HistSnapshot struct {
	Name    string
	Labels  []Label
	Bounds  []float64
	Buckets []int64
	Sum     float64
	Count   int64
}

// Snapshot captures the whole registry without stopping writers (values
// are atomically read; a snapshot racing an Observe sees either side of
// it): every registered counter, zero or not, plus the scratch-memory
// gauges (mem.go) once any scratch was tracked, and every series and
// histogram that has been observed, each list sorted by name and labels.
func Snapshot() (counters []MetricValue, series []SeriesSnapshot, hists []HistSnapshot) {
	registry.mu.Lock()
	for _, c := range registry.counters {
		counters = append(counters, MetricValue{Name: c.name, Value: float64(c.Value()), Kind: "counter"})
	}
	for _, c := range registry.floats {
		counters = append(counters, MetricValue{Name: c.name, Value: c.Value(), Kind: "float"})
	}
	registry.mu.Unlock()
	if p := PeakBytes(); p > 0 {
		counters = append(counters,
			MetricValue{Name: "mem.live_bytes", Value: float64(LiveBytes()), Kind: "gauge"},
			MetricValue{Name: "mem.peak_bytes", Value: float64(p), Kind: "gauge"})
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })

	registry.series.Range(func(_, v any) bool {
		s := v.(*seriesCell)
		if n := s.count.Load(); n > 0 {
			series = append(series, SeriesSnapshot{Name: s.name, Labels: s.labels, Count: n,
				Last: math.Float64frombits(s.lastBits.Load()), Sum: math.Float64frombits(s.sumBits.Load())})
		}
		return true
	})
	sort.Slice(series, func(i, j int) bool {
		return seriesKey(series[i].Name, series[i].Labels) < seriesKey(series[j].Name, series[j].Labels)
	})
	registry.hists.Range(func(_, v any) bool {
		h := v.(*histCell)
		buckets := make([]int64, len(h.buckets))
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
		}
		hists = append(hists, HistSnapshot{Name: h.name, Labels: h.labels, Bounds: h.bounds,
			Buckets: buckets, Sum: math.Float64frombits(h.sumBits.Load()), Count: h.count.Load()})
		return true
	})
	sort.Slice(hists, func(i, j int) bool {
		return seriesKey(hists[i].Name, hists[i].Labels) < seriesKey(hists[j].Name, hists[j].Labels)
	})
	return counters, series, hists
}

// Metrics returns the flat name -> value view of the registry the trace
// files and reports carry: every counter the run actually touched
// (zero-valued ones are skipped), the scratch-memory gauges, and the
// last value of every unlabeled series, sorted by name. Labeled series
// and histograms have no flat form; Snapshot carries them.
func Metrics() []MetricValue {
	counters, series, _ := Snapshot()
	out := counters[:0]
	for _, m := range counters {
		if m.Value != 0 {
			out = append(out, m)
		}
	}
	for _, s := range series {
		if len(s.Labels) == 0 {
			out = append(out, MetricValue{Name: s.Name, Value: s.Last, Kind: "gauge"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricValueOf returns the snapshot value of the named metric, or 0 if
// absent. Convenience for report code summing a single counter.
func MetricValueOf(name string) float64 {
	for _, m := range Metrics() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// ResetCounters zeroes every registered counter and drops every series
// and histogram. Called by Enable so each enabled run starts from zero.
func ResetCounters() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, c := range registry.floats {
		c.bits.Store(0)
	}
	for _, m := range []*sync.Map{&registry.series, &registry.hists} {
		m.Range(func(k, _ any) bool { m.Delete(k); return true })
	}
	resetPeakBytes()
}
