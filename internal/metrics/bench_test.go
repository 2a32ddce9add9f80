package metrics

import "testing"

// Overhead benchmarks: the instrumented hot-path primitives against their
// no-op (nil-handle) forms (`go test -bench MetricsOverhead
// ./internal/metrics`). The overhead budget: a few tens of nanoseconds per
// event against a ~55µs/page crawl path that emits ~15 counter/histogram
// events and ~4 spans, i.e. ≪2%.

func BenchmarkMetricsOverheadCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsOverheadCounterIncNop(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsOverheadCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkMetricsOverheadHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMetricsOverheadHistogramObserveNop(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMetricsOverheadHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}

func BenchmarkMetricsOverheadTraceAppend(b *testing.B) {
	r := NewTraceRing(4096)
	e := TraceEvent{Stage: "fetch", URL: "http://h.example/p", Dur: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Append(e)
	}
}
