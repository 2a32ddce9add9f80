// Package metrics is BINGO!'s process-wide instrumentation substrate: the
// continuous-visibility layer the original system lacked (its health was
// assessed by post-hoc inspection of the Oracle tables) and that production
// crawlers in the BUbiNG tradition treat as load-bearing. It provides
// atomic counters and gauges, lock-free sharded latency histograms with
// power-of-two buckets, a span-like trace-event ring buffer, and a
// registry with expvar-style JSON and Prometheus text exposition.
//
// Design constraints, in order:
//
//   - Hot-path neutrality. Counter.Inc and Histogram.Observe are
//     zero-allocation and lock-free (asserted in tests); the crawl and
//     query paths must stay within 2% of their uninstrumented cost.
//   - Stdlib only. No client_golang, no OpenTelemetry; the Prometheus
//     text format is written by hand.
//   - Crash-only reads. Exporters take a point-in-time snapshot; they
//     never block a writer.
//
// Instrumented subsystems register their metrics as package-level handles
// against the Default registry (expvar idiom), so importing a subsystem is
// all it takes for its series to appear on /metricsz. A nil handle of any
// metric type is a valid no-op, which is what the MetricsOverhead
// benchmarks measure the instrumented path against.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a valid no-op handle (the disabled mode).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Increments from concurrent goroutines are never lost.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer level (queue depth, heap size). The
// zero value is ready to use; a nil *Gauge is a valid no-op handle.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float level (convergence deltas, rates).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores f.
func (g *FloatGauge) Set(f float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(f))
}

// Value returns the current level.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// metricKind tags a registry entry for the exporters.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFloatGauge
	kindFloatGaugeFunc
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	kind      metricKind
	counter   *Counter
	gauge     *Gauge
	fgauge    *FloatGauge
	fgaugeFn  func() float64
	histogram *Histogram
}

// Registry is a named collection of metrics. Registration is
// get-or-create: asking twice for the same name and kind returns the same
// handle (so package-level handles and tests can share series); asking for
// an existing name with a different kind panics, since the two series
// would collide in the exposition formats.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry backs the package-level constructors and /metricsz.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) lookup(name string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q already registered with a different kind", name))
		}
		return e
	}
	e := &entry{kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindFloatGauge:
		e.fgauge = &FloatGauge{}
	case kindHistogram:
		e.histogram = newHistogram()
	}
	r.entries[name] = e
	return e
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, kindCounter).counter
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	return r.lookup(name, kindGauge).gauge
}

// FloatGauge returns the float gauge registered under name, creating it if
// new.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	return r.lookup(name, kindFloatGauge).fgauge
}

// Histogram returns the histogram registered under name, creating it if
// new.
func (r *Registry) Histogram(name string) *Histogram {
	return r.lookup(name, kindHistogram).histogram
}

// FloatGaugeFunc registers fn as a sampled float gauge: exporters call it
// at snapshot time (derived levels like hit ratios, which would drift if
// stored). Re-registering a name replaces the function (latest wins).
func (r *Registry) FloatGaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindFloatGaugeFunc {
			panic(fmt.Sprintf("metrics: %q already registered with a different kind", name))
		}
		e.fgaugeFn = fn
		return
	}
	r.entries[name] = &entry{kind: kindFloatGaugeFunc, fgaugeFn: fn}
}

// names returns the registered metric names, sorted, plus a map view taken
// under the lock (the entries themselves are safe to read lock-free).
func (r *Registry) names() ([]string, map[string]*entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	view := make(map[string]*entry, len(r.entries))
	for n, e := range r.entries {
		out = append(out, n)
		view[n] = e
	}
	sort.Strings(out)
	return out, view
}

// Package-level constructors against the Default registry — the expvar
// idiom instrumented packages use for their handles.

// NewCounter returns the default-registry counter for name.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge returns the default-registry gauge for name.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewFloatGauge returns the default-registry float gauge for name.
func NewFloatGauge(name string) *FloatGauge { return defaultRegistry.FloatGauge(name) }

// NewHistogram returns the default-registry histogram for name.
func NewHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// RegisterFloatGaugeFunc registers a sampled float gauge on the default
// registry.
func RegisterFloatGaugeFunc(name string, fn func() float64) { defaultRegistry.FloatGaugeFunc(name, fn) }
