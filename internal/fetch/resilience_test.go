package fetch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/dns"
)

// --- RetryPolicy.Backoff ---

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	prev := time.Duration(0)
	for attempt := 2; attempt <= 6; attempt++ {
		d := p.Backoff("http://a.example/x", attempt, prev, 0)
		if d < p.BaseDelay || d > p.MaxDelay {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, p.BaseDelay, p.MaxDelay)
		}
		if again := p.Backoff("http://a.example/x", attempt, prev, 0); again != d {
			t.Errorf("attempt %d: backoff not deterministic: %v vs %v", attempt, d, again)
		}
		prev = d
	}
	// Different URLs must draw different jitter (decorrelation), at least
	// somewhere in a handful of attempts.
	same := true
	for attempt := 2; attempt <= 6; attempt++ {
		if p.Backoff("http://a.example/x", attempt, p.BaseDelay, 0) !=
			p.Backoff("http://b.example/y", attempt, p.BaseDelay, 0) {
			same = false
		}
	}
	if same {
		t.Error("backoff identical across URLs: jitter is not URL-keyed")
	}
}

func TestBackoffRetryAfterHint(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	if d := p.Backoff("u", 2, 0, 50*time.Millisecond); d != 50*time.Millisecond {
		t.Errorf("Retry-After hint not honored: %v", d)
	}
	if d := p.Backoff("u", 2, 0, 10*time.Second); d != p.MaxDelay {
		t.Errorf("Retry-After hint not capped at MaxDelay: %v", d)
	}
}

// --- Retryable classification ---

func TestRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", ErrCanceled, false},
		{"status 429", &StatusError{Code: 429, URL: "u"}, true},
		{"status 503", &StatusError{Code: 503, URL: "u"}, true},
		{"status 404", &StatusError{Code: 404, URL: "u"}, false},
		{"truncated", ErrTruncated, true},
		{"corrupt body", ErrCorruptBody, true},
		{"redirect loop", ErrRedirectLoop, true},
		{"attempt deadline", context.DeadlineExceeded, true},
		{"duplicate", ErrDuplicate, false},
		{"bad host", ErrBadHost, false},
		{"robots", ErrRobots, false},
		{"nxdomain", dns.ErrNotFound, false},
		{"transport", errors.New("connection refused"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// --- Breaker state machine ---

// breakerCounts reads the process-wide breaker transition counters:
// opened, half-opened, closed, rejected.
func breakerCounts() [4]int64 {
	return [4]int64{mBreakerOpened.Value(), mBreakerHalfOpen.Value(), mBreakerClosed.Value(), mBreakerRejected.Value()}
}

func TestBreakerStateMachine(t *testing.T) {
	before := breakerCounts()
	now := time.Unix(0, 0)
	b := NewBreakerSet(BreakerConfig{
		FailureThreshold: 2,
		OpenFor:          time.Second,
		Now:              func() time.Time { return now },
	})

	// Closed: failures count toward the threshold.
	b.OnFailure("h")
	if got := b.State("h"); got != BreakerClosed {
		t.Fatalf("state after 1 failure = %v", got)
	}
	b.OnFailure("h")
	if got := b.State("h"); got != BreakerOpen {
		t.Fatalf("state after threshold = %v", got)
	}

	// Open: rejected with the remaining cool-down.
	ok, retryIn := b.Allow("h")
	if ok || retryIn <= 0 || retryIn > time.Second {
		t.Fatalf("open breaker Allow = %v, %v", ok, retryIn)
	}

	// Window elapsed: half-open admits exactly HalfOpenProbes probes.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := b.Allow("h"); !ok {
		t.Fatal("half-open probe not admitted")
	}
	if ok, retryIn := b.Allow("h"); ok || retryIn <= 0 {
		t.Fatalf("second concurrent probe admitted: %v, %v", ok, retryIn)
	}

	// Probe success closes (and evicts) the breaker.
	b.OnSuccess("h")
	if got := b.State("h"); got != BreakerClosed {
		t.Fatalf("state after probe success = %v", got)
	}
	if ok, _ := b.Allow("h"); !ok {
		t.Fatal("closed breaker rejecting")
	}

	moved := breakerCounts()
	for i := range moved {
		moved[i] -= before[i]
	}
	if moved != [4]int64{1, 1, 1, 2} {
		t.Errorf("transition counters (opened, half-opened, closed, rejected) moved by %v, want [1 1 1 2]", moved)
	}
}

func TestBreakerReopensOnProbeFailure(t *testing.T) {
	opened := mBreakerOpened.Value()
	now := time.Unix(0, 0)
	b := NewBreakerSet(BreakerConfig{
		FailureThreshold: 1,
		OpenFor:          time.Second,
		Now:              func() time.Time { return now },
	})
	b.OnFailure("h") // trip
	now = now.Add(2 * time.Second)
	if ok, _ := b.Allow("h"); !ok {
		t.Fatal("probe not admitted")
	}
	b.OnFailure("h") // probe fails: reopen immediately
	if got := b.State("h"); got != BreakerOpen {
		t.Fatalf("state after probe failure = %v", got)
	}
	if ok, _ := b.Allow("h"); ok {
		t.Fatal("reopened breaker admitted a request")
	}
	if got := mBreakerOpened.Value() - opened; got != 2 {
		t.Errorf("fetch_breaker_opened_total moved by %d, want 2", got)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreakerSet(BreakerConfig{FailureThreshold: 2})
	b.OnFailure("h")
	b.OnSuccess("h") // forgets the streak (and evicts the entry)
	b.OnFailure("h")
	if got := b.State("h"); got != BreakerClosed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", got)
	}
}

// --- Fetch-level resilience ---

// scriptTransport serves a fixed sequence of responses for any URL.
type scriptTransport struct {
	calls atomic.Int64
	steps []func(req *http.Request) (*http.Response, error)
}

func (s *scriptTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := int(s.calls.Add(1)) - 1
	if n >= len(s.steps) {
		n = len(s.steps) - 1
	}
	return s.steps[n](req)
}

func okPage(body string) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Content-Type", "text/html")
		return &http.Response{
			StatusCode:    200,
			Header:        h,
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
}

func status(code int) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: code,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("")),
			Request:    req,
		}, nil
	}
}

func refused(req *http.Request) (*http.Response, error) {
	return nil, errors.New("connect: connection refused")
}

func retryFetcher(tr http.RoundTripper, attempts int, mut func(*Config)) *Fetcher {
	cfg := Config{
		Transport: tr,
		Resolver:  testResolver("a.example"),
		Timeout:   200 * time.Millisecond,
		Retry: RetryPolicy{
			MaxAttempts: attempts,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, nil, nil)
}

func TestFetchRetriesTransientFailures(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){
		status(500),
		refused,
		okPage("<html>finally</html>"),
	}}
	f := retryFetcher(tr, 3, nil)
	res, err := f.Fetch(context.Background(), "http://a.example/x")
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if res.Attempts != 3 || tr.calls.Load() != 3 {
		t.Errorf("attempts = %d, transport calls = %d, want 3", res.Attempts, tr.calls.Load())
	}
	if string(res.Body) != "<html>finally</html>" {
		t.Errorf("body = %q", res.Body)
	}
}

func TestFetchDoesNotRetryPermanentStatus(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){status(404)}}
	f := retryFetcher(tr, 3, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("err = %v", err)
	}
	if tr.calls.Load() != 1 {
		t.Errorf("404 was retried: %d transport calls", tr.calls.Load())
	}
}

func TestFetchExhaustsRetryBudget(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){status(500)}}
	f := retryFetcher(tr, 3, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("err = %v", err)
	}
	if tr.calls.Load() != 3 {
		t.Errorf("transport calls = %d, want 3", tr.calls.Load())
	}
}

// TestFetchCallerCancellation distinguishes the caller giving up from the
// peer failing: no retry, no host penalty, no breaker penalty.
func TestFetchCallerCancellation(t *testing.T) {
	hang := roundTripperFunc(func(req *http.Request) (*http.Response, error) {
		<-req.Context().Done()
		return nil, req.Context().Err()
	})
	var breakers *BreakerSet
	f := retryFetcher(hang, 3, func(c *Config) {
		c.Timeout = 10 * time.Second // per-attempt timeout must NOT fire first
		breakers = NewBreakerSet(BreakerConfig{FailureThreshold: 1})
		c.Breaker = breakers
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := f.Fetch(ctx, "http://a.example/x")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if f.Hosts.Slow("a.example") || f.Hosts.Bad("a.example") {
		t.Error("caller cancellation was charged to the host")
	}
	if breakers.State("a.example") != BreakerClosed {
		t.Error("caller cancellation fed the circuit breaker")
	}
}

// TestCanceledFetchForgetsItsVisit: a visit abandoned mid-attempt records
// no fingerprint, so a later live fetch of the URL reads the page instead
// of being dismissed as a duplicate of the visit that never read it.
func TestCanceledFetchForgetsItsVisit(t *testing.T) {
	hang := func(req *http.Request) (*http.Response, error) {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){
		hang, okPage("<html><title>back</title></html>"),
	}}
	f := retryFetcher(tr, 3, func(c *Config) { c.Timeout = 10 * time.Second })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := f.Fetch(ctx, "http://a.example/x"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first fetch: err = %v, want ErrCanceled", err)
	}
	res, err := f.Fetch(context.Background(), "http://a.example/x")
	if err != nil {
		t.Fatalf("fetch after the abandoned visit: err = %v", err)
	}
	res.ReleaseBody()
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); err != ErrDuplicate {
		t.Fatalf("third fetch: err = %v, want ErrDuplicate", err)
	}
}

// truncatedBody yields a prefix of the page then fails the read mid-body.
type truncatedBody struct {
	r    io.Reader
	done bool
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		return n, errors.New("connection reset by peer")
	}
	return n, err
}
func (b *truncatedBody) Close() error { return nil }

func truncated(full string, keep int) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Content-Type", "text/html")
		return &http.Response{
			StatusCode:    200,
			Header:        h,
			Body:          &truncatedBody{r: strings.NewReader(full[:keep])},
			ContentLength: int64(len(full)), // declared length stays the lie
			Request:       req,
		}, nil
	}
}

func TestFetchTruncationDegraded(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){
		truncated("<html>half of this survives the wire</html>", 20),
	}}
	f := retryFetcher(tr, 2, func(c *Config) { c.DegradeTruncated = true })
	res, err := f.Fetch(context.Background(), "http://a.example/x")
	if err != nil {
		t.Fatalf("truncated body not degraded: %v", err)
	}
	if !res.Truncated {
		t.Error("result not flagged Truncated")
	}
	if string(res.Body) != "<html>half of this s" {
		t.Errorf("partial body = %q", res.Body)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d: truncation should be retried before degrading", res.Attempts)
	}
	// Degradation must not mask the host's unhealthiness.
	if !f.Hosts.Slow("a.example") {
		t.Error("truncation not charged to the host")
	}
}

func TestFetchTruncationWithoutDegradationIsError(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){
		truncated("<html>half of this survives the wire</html>", 20),
	}}
	f := retryFetcher(tr, 2, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestFetchCorruptGzip(t *testing.T) {
	garbage := func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Content-Type", "text/html")
		h.Set("Content-Encoding", "gzip")
		body := "\x1f\x8bnot a gzip stream"
		return &http.Response{
			StatusCode:    200,
			Header:        h,
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){garbage}}
	f := retryFetcher(tr, 2, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); !errors.Is(err, ErrCorruptBody) {
		t.Fatalf("err = %v, want ErrCorruptBody", err)
	}
	if tr.calls.Load() != 2 {
		t.Errorf("corrupt body not retried: %d calls", tr.calls.Load())
	}
}

// TestFetchBreakerOpen: once a host's breaker trips, the next fetch is
// rejected before any network work with a typed error carrying the
// cool-down.
func TestFetchBreakerOpen(t *testing.T) {
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){status(500)}}
	breakers := NewBreakerSet(BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute})
	f := retryFetcher(tr, 1, func(c *Config) { c.Breaker = breakers })
	if _, err := f.Fetch(context.Background(), "http://a.example/x"); err == nil {
		t.Fatal("expected first fetch to fail")
	}
	calls := tr.calls.Load()

	_, err := f.Fetch(context.Background(), "http://a.example/y")
	var bo *BreakerOpenError
	if !errors.As(err, &bo) {
		t.Fatalf("err = %v, want BreakerOpenError", err)
	}
	if !errors.Is(err, ErrBreakerOpen) {
		t.Error("BreakerOpenError does not match ErrBreakerOpen")
	}
	if bo.Host != "a.example" || bo.RetryIn <= 0 {
		t.Errorf("BreakerOpenError = %+v", bo)
	}
	if tr.calls.Load() != calls {
		t.Error("breaker-open fetch still hit the transport")
	}
}

// TestFetchRedirectQueryLoop: a redirect hop landing back on the requested
// URL's host+path with a shuffled query is a redirect loop charged to the
// host — not a duplicate of itself.
func TestFetchRedirectQueryLoop(t *testing.T) {
	loop := func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		loc := *req.URL
		loc.RawQuery = "session=1"
		h.Set("Location", loc.String())
		return &http.Response{
			StatusCode: 302,
			Header:     h,
			Body:       io.NopCloser(strings.NewReader("")),
			Request:    req,
		}, nil
	}
	tr := &scriptTransport{steps: []func(*http.Request) (*http.Response, error){loop}}
	f := retryFetcher(tr, 1, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/page"); !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop", err)
	}
	if !f.Hosts.Slow("a.example") {
		t.Error("redirect loop not charged to the host")
	}
}
