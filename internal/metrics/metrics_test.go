package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent asserts no increment is lost under parallel
// writers (run under -race via `make race`).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(2)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent asserts count and sum are exact under parallel
// observers, no matter which shards the observations land on.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	n := int64(workers * perWorker)
	if want := n * (n - 1) / 2; s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total = %d, want %d", bucketTotal, s.Count)
	}
}

// TestZeroAllocHotPath is the overhead-budget contract: the two
// per-event instrumentation calls the crawl and query hot paths make must
// not allocate, whether the handle is live or the nil no-op.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	g := r.Gauge("g")
	var nilC *Counter
	var nilH *Histogram
	for name, fn := range map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"counter-add":       func() { c.Add(3) },
		"gauge-add":         func() { g.Add(1) },
		"histogram-observe": func() { h.Observe(1234) },
		"nop-counter":       func() { nilC.Inc() },
		"nop-histogram":     func() { nilH.Observe(1234) },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<62 + 1, histBuckets - 1},
	} {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1106 {
		t.Fatalf("snapshot = %+v", s)
	}
	// p50: rank 3 of {1,2,3,100,1000} is 3, in bucket [2,4) → upper bound 4.
	if q := s.Quantile(0.5); q != 4 {
		t.Errorf("p50 = %d, want 4", q)
	}
	// p99: rank 5 is 1000, in bucket [512,1024) → upper bound 1024.
	if q := s.Quantile(0.99); q != 1024 {
		t.Errorf("p99 = %d, want 1024", q)
	}
	if m := s.Mean(); m != 1106.0/5 {
		t.Errorf("mean = %v", m)
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	fg := r.FloatGauge("delta")
	fg.Set(1.5e-9)
	if got := fg.Value(); got != 1.5e-9 {
		t.Errorf("float gauge = %v", got)
	}
}

func TestRegistryGetOrCreateAndKindClash(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name did not return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-kind registration did not panic")
		}
	}()
	r.Gauge("x")
}

func TestExportFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawler_pages_stored_total").Add(7)
	r.Gauge("frontier_queued").Set(42)
	r.FloatGauge("hits_delta").Set(0.25)
	r.FloatGaugeFunc("store_docs", func() float64 { return 9 })
	h := r.Histogram("fetch_nanos")
	h.Observe(900)
	h.Observe(3000)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out["crawler_pages_stored_total"].(float64) != 7 ||
		out["frontier_queued"].(float64) != 42 ||
		out["store_docs"].(float64) != 9 ||
		out["hits_delta"].(float64) != 0.25 {
		t.Errorf("JSON export mismatch: %v", out)
	}
	hj := out["fetch_nanos"].(map[string]any)
	if hj["count"].(float64) != 2 || hj["sum"].(float64) != 3900 {
		t.Errorf("histogram JSON mismatch: %v", hj)
	}

	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE crawler_pages_stored_total counter",
		"crawler_pages_stored_total 7",
		"frontier_queued 42",
		"store_docs 9",
		"hits_delta 0.25",
		"# TYPE fetch_nanos histogram",
		`fetch_nanos_bucket{le="1024"} 1`,
		`fetch_nanos_bucket{le="+Inf"} 2`,
		"fetch_nanos_sum 3900",
		"fetch_nanos_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		url      string
		wantType string
		wantBody string
	}{
		{srv.URL, "text/plain", "a_total 1"},
		{srv.URL + "?format=json", "application/json", `"a_total": 1`},
		{srv.URL + "?format=prometheus", "text/plain", "# TYPE a_total counter"},
	} {
		resp, err := srv.Client().Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := string(data)
		if !strings.Contains(resp.Header.Get("Content-Type"), tc.wantType) {
			t.Errorf("%s: content-type = %q", tc.url, resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(body, tc.wantBody) {
			t.Errorf("%s: body missing %q:\n%s", tc.url, tc.wantBody, body)
		}
	}
}
