package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
)

// The client resilience suite: hedged second attempts on slow servers,
// retry on 5xx, immediate return on deterministic errors (409), and the
// per-address circuit breaker.

func pingOK(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"v":2,"ready":true}`))
}

func TestClientHedgesSlowServer(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first attempt wedges until the test ends
		}
		pingOK(w)
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient(srv.URL, ClientOptions{Timeout: 5 * time.Second, HedgeAfter: 20 * time.Millisecond})
	resp, err := c.Ping(context.Background())
	if err != nil {
		t.Fatalf("hedged ping failed: %v", err)
	}
	if !resp.Ready {
		t.Fatal("lost the response body through the hedge")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("made %d attempts, want 2 (one hedge)", n)
	}
}

func TestClientRetriesOn5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"v":1,"code":"internal","message":"transient"}`, http.StatusInternalServerError)
			return
		}
		pingOK(w)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second, HedgeAfter: time.Second})
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("retryable 500 not retried: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("made %d attempts, want 2", n)
	}
}

func TestClientConflictIsImmediateAndNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"v":1,"code":"version_conflict","message":"stale","have":"g7"}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second, HedgeAfter: time.Second})
	_, err := c.Ping(context.Background())
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ConflictError", err)
	}
	if ce.Code != CodeVersionConflict || ce.Have != "g7" {
		t.Fatalf("conflict carried code=%q have=%q", ce.Code, ce.Have)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deterministic conflict made %d attempts, want 1", n)
	}
	// A conflict proves the server alive: the breaker must stay closed.
	if st := c.Breaker(); st != fetch.BreakerClosed {
		t.Fatalf("breaker state after conflict = %v, want closed", st)
	}
}

func TestClientBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	brk := fetch.NewBreakerSet(fetch.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute})
	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second, HedgeAfter: -1, Breaker: brk})
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("500 reported success")
	}
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("500 reported success")
	}
	_, err := c.Stats(context.Background())
	var be *BreakerOpenError
	if !errors.As(err, &be) {
		t.Fatalf("third call got %v, want BreakerOpenError", err)
	}
	if be.Addr != c.Addr() {
		t.Fatalf("breaker error names %q, want %q", be.Addr, c.Addr())
	}
}

func TestClientInsertNeverHedges(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond) // well past HedgeAfter
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"v":2,"num_docs":1,"durable":0}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second, HedgeAfter: 5 * time.Millisecond})
	if _, err := c.Insert(context.Background(), &InsertRequest{}); err != nil {
		t.Fatalf("insert failed: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("slow insert made %d attempts, want 1 — duplicate inserts double link rows", n)
	}
}

func TestClientRejectsUnknownProtocolVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"v":1,"code":"bad_request","message":"unsupported protocol version"}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second})
	_, err := c.Stats(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Code != CodeBadRequest {
		t.Fatalf("got %v, want 400 bad_request StatusError", err)
	}
}

// TestClientRejectsOtherGenerationResponse: a server that answers 200 in
// another protocol generation — here a version-1 shard answering ping and
// search — is refused with a *ProtoError on the first attempt, without a
// hedge or retry, and the refusal counts in rpc_client_errors_total.
func TestClientRejectsOtherGenerationResponse(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case PathPing:
			w.Write([]byte(`{"v":1,"ready":true,"num_docs":3}`))
		default:
			w.Write([]byte(`{"v":1,"survivors":0,"url":[],"title":[],"topic":[],"cos":[],"conf":[]}`))
		}
	}))
	defer srv.Close()

	errs := metrics.NewCounter("rpc_client_errors_total")
	before := errs.Value()
	c := NewClient(srv.URL, ClientOptions{Timeout: time.Second, HedgeAfter: time.Second})
	_, err := c.Ping(context.Background())
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Have != 1 || pe.Addr != c.Addr() {
		t.Fatalf("ping got %v, want a ProtoError naming version 1", err)
	}
	plan := &search.Plan{Limit: 10, Weights: search.DefaultWeights()}
	if _, err := c.Search(context.Background(), "g1", plan); !errors.As(err, &pe) {
		t.Fatalf("search got %v, want a ProtoError", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("made %d attempts for two calls, want 2 — a version mismatch is not retried", n)
	}
	if d := errs.Value() - before; d != 2 {
		t.Fatalf("rpc_client_errors_total rose by %d, want 2", d)
	}
}

// TestClientSearchRejectsRaggedColumns: a search answer whose row columns
// differ in length is refused instead of indexed past its end.
func TestClientSearchRejectsRaggedColumns(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"v":2,"survivors":2,"url":["a","b"],"title":["a","b"],"topic":["t","t"],"cos":[0.5],"conf":[0.1,0.2]}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL, ClientOptions{HedgeAfter: -1})
	plan := &search.Plan{Limit: 10, Weights: search.DefaultWeights()}
	if sb, err := c.Search(context.Background(), "g1", plan); err == nil {
		t.Fatalf("ragged columns accepted: %+v", sb)
	}
}
