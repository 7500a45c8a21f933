// Package telemetry is the fleet observability subsystem: a
// zero-dependency concurrent metrics registry (counters, gauges and
// log-linear histograms with labeled families, exposed in Prometheus
// text format at GET /metrics) plus in-process request tracing (a trace
// ID propagated on the X-Request-ID header across gate → replica →
// peer-fetch hops, with a bounded span recorder queryable at
// GET /v1/traces/{id} and sampled into log/slog).
//
// The package imports only the standard library, so every layer of the
// stack — client SDK, gate, registry, measure runner — can depend on it
// without cycles. It is distinct from internal/metrics, which is the
// paper's evaluation arithmetic, not operational telemetry.
//
// Cardinality discipline: label values must come from bounded sets
// (mux route patterns, outcome enums, replica indices) — never model
// keys, paths or user input. Each family additionally clamps itself to
// maxSeries distinct label combinations; past that, new combinations
// collapse into a single overflow series labeled "other", so a bug can
// cost accuracy but never unbounded memory.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram scales: the exposed value of one recorded unit. Durations
// are recorded in nanoseconds and exposed in seconds per Prometheus
// convention; sizes are recorded and exposed as-is.
const (
	Seconds = 1e-9
	Units   = 1.0
)

// DurationBuckets is the default latency exposition ladder, in seconds.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// SizeBuckets is the default ladder for small-count histograms
// (batch window sizes and the like).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// maxSeries bounds the distinct label combinations per family; see the
// package comment.
const maxSeries = 128

// overflowLabel replaces every label value of a combination created
// past the maxSeries bound.
const overflowLabel = "other"

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent use; the zero value is not
// usable — construct with New.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order drives exposition order
	byName   map[string]*family
	hooks    []func()
}

// New builds an empty metrics registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnScrape registers a hook run before every exposition — the place to
// refresh gauges whose source of truth lives elsewhere (breaker states,
// queue depths snapshotted from another subsystem).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// family is one named metric with a fixed label schema and one series
// per label-value combination.
type family struct {
	name, help, typ string
	labelKeys       []string

	// Histogram families only.
	scale    float64
	bounds   []float64 // exposition ladder, exposed units, ascending
	boundIdx []int     // per bound: last fine bucket at or under it

	// Func-backed families (CounterFunc/GaugeFunc) only.
	fn func() float64

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	labelVals []string
	val       atomic.Int64 // counter / gauge
	hist      *Histogram   // histogram
}

// register returns the family for name, creating it on first use. A
// name reused with a different type or label schema is a programming
// error and panics — silent divergence would corrupt the exposition.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || strings.Join(f.labelKeys, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labelKeys))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelKeys: labels,
		series:    map[string]*series{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// with returns the series for one label-value combination, creating it
// on first use and collapsing combinations past the maxSeries bound
// into the overflow series.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= maxSeries {
		values = make([]string, len(f.labelKeys))
		for i := range values {
			values[i] = overflowLabel
		}
		key = strings.Join(values, "\x1f")
		if s, ok := f.series[key]; ok {
			return s
		}
	}
	s := &series{labelVals: append([]string(nil), values...)}
	if f.typ == "histogram" {
		s.hist = NewHistogram()
	}
	f.series[key] = s
	return s
}

// snapshot returns the series sorted by label values, for deterministic
// exposition.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

// Counter is a monotonically increasing metric handle. All methods are
// nil-safe, so optional instrumentation costs a nil check when absent.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be ≥ 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.s.val.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.val.Load()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.with(values)}
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// Gauge is a set-to-current-value metric handle. Nil-safe.
type Gauge struct{ s *series }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.s.val.Store(n)
	}
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.s.val.Add(n)
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.s.val.Load()
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.f.with(values)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels)}
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — for sources that already keep their own monotonic
// counts (registry cache stats) and should not be double-tracked.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter", nil)
	f.fn = fn
}

// GaugeFunc registers a gauge sampled from fn at scrape time (queue
// depths, pool sizes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.fn = fn
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values).hist
}

// Histogram registers (or finds) an unlabeled histogram. scale is the
// exposed value of one recorded unit (Seconds for durations recorded
// in nanoseconds, Units for plain values); buckets is the exposition
// ladder in exposed units, ascending (+Inf is implicit). Quantiles
// keep the fine log-linear resolution regardless of the ladder.
func (r *Registry) Histogram(name, help string, scale float64, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, scale, buckets).With()
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, scale float64, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, "histogram", labels)
	r.mu.Lock()
	if f.bounds == nil {
		if scale <= 0 {
			scale = Units
		}
		f.scale = scale
		f.bounds = append([]float64(nil), buckets...)
		f.boundIdx = ladderIndexes(f.bounds, scale)
	}
	r.mu.Unlock()
	return &HistogramVec{f: f}
}

// ladderIndexes precomputes, per exposition bound, the last fine
// log-linear bucket whose midpoint is at or under it, so scrapes
// render cumulative counts with one pass over the fine buckets.
func ladderIndexes(bounds []float64, scale float64) []int {
	out := make([]int, len(bounds))
	for i, b := range bounds {
		limit := b / scale
		idx := -1
		for j := 0; j < numBucket; j++ {
			if float64(bucketValue(j)) <= limit {
				idx = j
			} else {
				break
			}
		}
		out[i] = idx
	}
	return out
}
