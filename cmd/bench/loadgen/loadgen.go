// Package loadgen is the benchmark's own open-loop load generator for
// /search. It differs from internal/loadgen on purpose: that one is a
// 64-worker harness that measures the scheduler as much as the server;
// this one is a single process with a fixed, small set of keep-alive
// connections, a fixed arrival schedule derived from the rate alone, and
// accounting that makes a stall visible instead of hiding it —
//
//   - every request has a due time (start + i/rate) and its latency is
//     timed from that instant, so the wait a slow response imposes on the
//     requests queued behind it counts against the server;
//   - the number of requests offered is floor(rate·duration) exactly,
//     whatever the server does;
//   - a request that has not finished one grace period after the window
//     closes — or was never started by then — counts as failed;
//   - how late the generator itself ran is reported: send time minus the
//     later of the due time and the instant a connection became free. Waiting
//     for a connection is the server's doing and stays in the latency; what
//     is left is timer and scheduler delay on the generator's side, so a
//     window whose numbers measure the generator can be told apart.
package loadgen

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/stat"
)

// Config describes one timed window.
type Config struct {
	// Target is the server base URL; requests are GET Target+"/search?"+query.
	Target string
	// Rate is the arrival rate in requests per second.
	Rate float64
	// Duration is the window length; arrivals are due in [0, Duration).
	Duration time.Duration
	// Conns is the number of keep-alive connections (and sender goroutines).
	Conns int
	// Grace is how long after the window closes a request may still finish
	// before it counts as failed (default 1s).
	Grace time.Duration
	// Query returns the raw URL query string of the i-th arrival, such as
	// "q=recovery+log&k=10". It is called from sender goroutines.
	Query func(i int) string
	// Observe, when non-nil, receives every finished request in the traced
	// run (status 0 = transport error or missed window). Called from sender
	// goroutines.
	Observe func(i int, due, sent, done time.Time, status int)
	// Header, when non-nil, is added to every request (the traced run tags
	// requests with their index so server-side spans can name their parent).
	Header func(i int) (key, value string)
}

// Result is the outcome of one window.
type Result struct {
	// Offered is the exact number of arrivals scheduled: floor(Rate·Duration).
	Offered int
	// OK counts 2xx responses that finished within the grace period.
	OK int
	// Failed counts everything else: non-2xx, transport errors, requests
	// still running or not yet started when the grace period ended.
	Failed int
	// Status5xx counts 5xx responses (a subset of Failed).
	Status5xx int
	// LatencyMs holds, ascending, the latency of every OK request measured
	// from its due time to the last response byte.
	LatencyMs []float64
	// LateMs holds, ascending, for every request sent, how long after it
	// could have been sent (due, and a connection free) it was sent.
	LateMs []float64
	// RespBytes is the total body bytes of OK responses.
	RespBytes int64
}

// P50 returns the median OK latency in milliseconds.
func (r Result) P50() float64 { return stat.Percentile(r.LatencyMs, 50) }

// P99 returns the 99th-percentile OK latency in milliseconds.
func (r Result) P99() float64 { return stat.Percentile(r.LatencyMs, 99) }

// LateP99 returns the 99th-percentile generator lateness in milliseconds.
func (r Result) LateP99() float64 { return stat.Percentile(r.LateMs, 99) }

// Offered returns the number of arrivals a window of the given rate and
// length schedules.
func Offered(rate float64, d time.Duration) int {
	return int(rate * d.Seconds())
}

// Run drives one window and returns once every sender has stopped.
func Run(ctx context.Context, cfg Config) Result {
	if cfg.Grace <= 0 {
		cfg.Grace = time.Second
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	n := Offered(cfg.Rate, cfg.Duration)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	tr := &http.Transport{MaxIdleConnsPerHost: cfg.Conns, MaxConnsPerHost: cfg.Conns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	type sample struct {
		latMs, lateMs float64
		sent, ok      bool
		status        int
		bytes         int64
	}
	samples := make([]sample, n)
	start := time.Now()
	deadline := start.Add(cfg.Duration + cfg.Grace)
	wctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				free := time.Now()
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-wctx.Done():
					}
				}
				if wctx.Err() != nil {
					// Missed window: never started before the grace period
					// ended. The remaining arrivals fail the same way.
					if cfg.Observe != nil {
						cfg.Observe(i, due, time.Time{}, time.Time{}, 0)
					}
					continue
				}
				sent := time.Now()
				status, nbytes := get(wctx, client, cfg, i)
				done := time.Now()
				s := &samples[i]
				s.sent = true
				if due.After(free) {
					free = due
				}
				s.lateMs = ms(sent.Sub(free))
				s.status = status
				if status >= 200 && status < 300 {
					s.ok = true
					s.latMs = ms(done.Sub(due))
					s.bytes = nbytes
				}
				if cfg.Observe != nil {
					cfg.Observe(i, due, sent, done, status)
				}
			}
		}()
	}
	wg.Wait()

	res := Result{Offered: n}
	for i := range samples {
		s := &samples[i]
		if s.sent {
			res.LateMs = append(res.LateMs, s.lateMs)
		}
		if s.ok {
			res.OK++
			res.LatencyMs = append(res.LatencyMs, s.latMs)
			res.RespBytes += s.bytes
		} else {
			res.Failed++
			if s.status >= 500 {
				res.Status5xx++
			}
		}
	}
	res.LatencyMs = stat.Sorted(res.LatencyMs)
	res.LateMs = stat.Sorted(res.LateMs)
	return res
}

// get performs one request and drains the body; status 0 reports a
// transport error or an expired window.
func get(ctx context.Context, client *http.Client, cfg Config, i int) (status int, nbytes int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Target+"/search?"+cfg.Query(i), nil)
	if err != nil {
		return 0, 0
	}
	if cfg.Header != nil {
		k, v := cfg.Header(i)
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	nbytes, err = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, 0
	}
	return resp.StatusCode, nbytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Distinct returns the arrival-to-query assignment of a cache-hostile
// stream: arrival i asks query (offset+i) mod poolSize, so a pool at least
// as large as the window never repeats a key.
func Distinct(offset, poolSize int) func(i int) int {
	return func(i int) int { return (offset + i) % poolSize }
}

// Zipf returns a seeded, precomputed arrival-to-query assignment of n
// arrivals over the first head pool entries, popularity ∝ 1/rank^s — the
// cache-friendly stream. The same seed gives the same sequence.
func Zipf(seed int64, n, head int, s float64) func(i int) int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(head-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return func(i int) int { return seq[i%len(seq)] }
}
