package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// slowServer answers every /search after delay and records the queries it
// saw, in arrival order.
func slowServer(t *testing.T, delay time.Duration) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var seen []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.RawQuery)
		mu.Unlock()
		time.Sleep(delay)
		w.Write([]byte("ok"))
	}))
	t.Cleanup(hs.Close)
	return hs, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

func TestOfferedCountIsExact(t *testing.T) {
	if got := Offered(80, 5333*time.Millisecond); got != 426 {
		t.Errorf("Offered(80/s, 5.333s) = %d, want 426", got)
	}
	hs, seen := slowServer(t, 0)
	res := Run(context.Background(), Config{
		Target: hs.URL, Rate: 200, Duration: 250 * time.Millisecond, Conns: 2,
		Query: func(i int) string { return "q=x" },
	})
	if res.Offered != 50 || res.OK != 50 || res.Failed != 0 || len(seen()) != 50 {
		t.Errorf("offered %d ok %d failed %d, server saw %d; want 50/50/0/50", res.Offered, res.OK, res.Failed, len(seen()))
	}
	if res.RespBytes != 100 {
		t.Errorf("RespBytes = %d, want 100", res.RespBytes)
	}
}

// One connection, a 30 ms server and an arrival every 10 ms: the server
// falls 20 ms further behind with every request. A generator that timed
// from the send instant would report 30 ms for all of them; timing from
// the due instant charges the backlog to the server.
func TestLatencyIsTimedFromDueTime(t *testing.T) {
	hs, _ := slowServer(t, 30*time.Millisecond)
	res := Run(context.Background(), Config{
		Target: hs.URL, Rate: 100, Duration: 100 * time.Millisecond, Conns: 1,
		Query: func(i int) string { return "q=x" },
	})
	if res.OK != 10 {
		t.Fatalf("ok %d of %d, want all 10", res.OK, res.Offered)
	}
	last := res.LatencyMs[len(res.LatencyMs)-1]
	// Request 9 is due at 90 ms and finishes no earlier than 10×30 ms.
	if last < 200 {
		t.Errorf("slowest latency %.1f ms; from its due time it must be at least 210 ms", last)
	}
	if first := res.LatencyMs[0]; first < 30 || first > 120 {
		t.Errorf("fastest latency %.1f ms, want about one service time", first)
	}
	// Waiting for the one connection is the server's doing, not generator
	// lateness.
	if late := res.LateP99(); late > 25 {
		t.Errorf("generator lateness p99 %.1f ms, want timer slack only", late)
	}
}

// A 200 ms server, one connection, ten arrivals in 200 ms and 100 ms of
// grace: request 0 finishes in time, request 1 is cut off by the deadline,
// the other eight are never started. All nine count as failed.
func TestMissedWindowCountsAsFailed(t *testing.T) {
	hs, seen := slowServer(t, 200*time.Millisecond)
	start := time.Now()
	res := Run(context.Background(), Config{
		Target: hs.URL, Rate: 50, Duration: 200 * time.Millisecond, Conns: 1, Grace: 100 * time.Millisecond,
		Query: func(i int) string { return "q=x" },
	})
	if res.Offered != 10 || res.OK != 1 || res.Failed != 9 {
		t.Errorf("offered %d ok %d failed %d, want 10/1/9", res.Offered, res.OK, res.Failed)
	}
	if n := len(seen()); n > 2 {
		t.Errorf("server saw %d requests; arrivals past the deadline must not be sent", n)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Run took %v; it must stop at window + grace", took)
	}
}

func TestNon2xxCountsAsFailed(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("q") == "bad" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer hs.Close()
	res := Run(context.Background(), Config{
		Target: hs.URL, Rate: 100, Duration: 100 * time.Millisecond, Conns: 2,
		Query: func(i int) string {
			if i%5 == 0 {
				return "q=bad"
			}
			return "q=good"
		},
	})
	if res.OK != 8 || res.Failed != 2 || res.Status5xx != 2 || len(res.LatencyMs) != 8 {
		t.Errorf("ok %d failed %d 5xx %d latencies %d, want 8/2/2/8", res.OK, res.Failed, res.Status5xx, len(res.LatencyMs))
	}
}

func TestSameSeedSameQuerySequence(t *testing.T) {
	const n, head = 500, 256
	a, b, c := Zipf(2003, n, head, 1.1), Zipf(2003, n, head, 1.1), Zipf(2004, n, head, 1.1)
	differs, zeros := false, 0
	for i := 0; i < n; i++ {
		if a(i) != b(i) {
			t.Fatalf("arrival %d: same seed gave %d and %d", i, a(i), b(i))
		}
		if a(i) < 0 || a(i) >= head {
			t.Fatalf("arrival %d: index %d outside the head of %d", i, a(i), head)
		}
		differs = differs || a(i) != c(i)
		if a(i) == 0 {
			zeros++
		}
	}
	if !differs {
		t.Error("another seed gave the same sequence")
	}
	if zeros < n/10 {
		t.Errorf("rank 0 drew %d of %d arrivals; a Zipf(1.1) head is more popular than that", zeros, n)
	}

	d := Distinct(40, 1000)
	seen := map[int]bool{}
	for i := 0; i < 900; i++ {
		if seen[d(i)] {
			t.Fatalf("Distinct repeated pool position %d within the pool size", d(i))
		}
		seen[d(i)] = true
	}
	if d(0) != 40 {
		t.Errorf("Distinct starts at %d, want its offset 40", d(0))
	}
}
