package rpc

// This file is the coordinator side of the wire: a typed Client per shard
// server with the resilience mechanics the tentpole asks for — a
// per-attempt timeout, a hedged second attempt (launched when the first is
// slow or when it fails retryably; first success wins, two attempts
// maximum, no replicas involved), and a circuit breaker per server address
// reusing internal/fetch's closed/open/half-open state machine. Conflicts
// (409) are not failures: the server is alive and merely disagrees about
// state, so they feed the breaker's success side and surface as
// ConflictError for the coordinator's resync logic.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
)

// Client-side RPC traffic: request/error counts and latency, hedge volume
// and wins (a rising hedge rate is the slow-shard signal OPERATIONS.md
// keys its runbook on), and breaker rejections.
var (
	mCliRequests    = metrics.NewCounter("rpc_client_requests_total")
	mCliErrors      = metrics.NewCounter("rpc_client_errors_total")
	mCliNanos       = metrics.NewHistogram("rpc_client_request_nanos")
	mCliHedges      = metrics.NewCounter("rpc_client_hedges_total")
	mCliHedgeWins   = metrics.NewCounter("rpc_client_hedge_wins_total")
	mCliRetries     = metrics.NewCounter("rpc_client_retries_total")
	mCliBreakerOpen = metrics.NewCounter("rpc_client_breaker_open_total")
)

// ClientOptions tunes one shard-server client.
type ClientOptions struct {
	// Timeout bounds one attempt (default 5s).
	Timeout time.Duration
	// HedgeAfter is how long to wait on the first attempt before launching
	// the hedged second one (default 250ms; <0 disables hedging).
	HedgeAfter time.Duration
	// Breaker is the shared breaker set keyed by server address; nil gives
	// the client a private one with fetch's defaults.
	Breaker *fetch.BreakerSet
	// HTTPClient overrides the transport (tests); nil uses a dedicated
	// client with sane connection reuse.
	HTTPClient *http.Client
}

// Client speaks the wire protocol to one shard server. It is safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opt  ClientOptions
	brk  *fetch.BreakerSet
}

// NewClient builds a client for the shard server at base, e.g.
// "http://127.0.0.1:7001". A trailing slash is trimmed.
func NewClient(base string, opt ClientOptions) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 250 * time.Millisecond
	}
	brk := opt.Breaker
	if brk == nil {
		brk = fetch.NewBreakerSet(fetch.BreakerConfig{})
	}
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc, opt: opt, brk: brk}
}

// Addr returns the server base address the client talks to.
func (c *Client) Addr() string { return c.base }

// Breaker returns the breaker state for this client's address (operators
// read it through coord_* metrics; tests through this).
func (c *Client) Breaker() fetch.BreakerState { return c.brk.State(c.base) }

// Ping fetches liveness and identity.
func (c *Client) Ping(ctx context.Context) (*PingResponse, error) {
	var resp PingResponse
	if err := c.call(ctx, http.MethodGet, PathPing, nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats pins a partition snapshot and fetches its df stats.
func (c *Client) Stats(ctx context.Context) (*search.PartitionStats, error) {
	var resp StatsResponse
	if err := c.call(ctx, http.MethodGet, PathStats, nil, &resp, false); err != nil {
		return nil, err
	}
	return &resp.Stats, nil
}

// SetGlobal installs merged global corpus statistics under version. pin
// must echo the Pin token of the Stats pull the statistics were merged
// from.
func (c *Client) SetGlobal(ctx context.Context, version, pin string, totalDocs int, terms []string, df []int) error {
	req := GlobalRequest{V: ProtoVersion, Version: version, Pin: pin, TotalDocs: totalDocs, Terms: terms, DF: df}
	var resp GlobalResponse
	return c.call(ctx, http.MethodPost, PathGlobal, &req, &resp, false)
}

// Links dumps the partition's link edges.
func (c *Client) Links(ctx context.Context) (*LinksResponse, error) {
	var resp LinksResponse
	if err := c.call(ctx, http.MethodGet, PathLinks, nil, &resp, false); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SetAuth installs global authority scores for version.
func (c *Client) SetAuth(ctx context.Context, version string, urls []string, scores []float64) error {
	req := AuthRequest{V: ProtoVersion, Version: version, URLs: urls, Scores: scores}
	var resp AuthResponse
	return c.call(ctx, http.MethodPost, PathAuth, &req, &resp, false)
}

// Search answers one query in a single round trip: the partition's
// counts, local maxima and K-skyband rows, column lengths checked.
func (c *Client) Search(ctx context.Context, version string, plan *search.Plan) (*search.Skyband, error) {
	req := SearchRequest{V: ProtoVersion, Version: version, Plan: *plan}
	var resp SearchResponse
	if err := c.call(ctx, http.MethodPost, PathSearch, &req, &resp, true); err != nil {
		return nil, err
	}
	sb := &resp.Skyband
	n := len(sb.URL)
	if len(sb.Title) != n || len(sb.Topic) != n || len(sb.Cos) != n || len(sb.Conf) != n ||
		(plan.Weights.Authority != 0 && len(sb.Auth) != n) {
		return nil, errors.New("rpc: search response columns differ in length")
	}
	return sb, nil
}

// Score runs query phase 1. The coordinator no longer calls it; it stays
// for the benchmark's traced replay.
func (c *Client) Score(ctx context.Context, version string, plan *search.Plan) (*search.ScoreStats, error) {
	req := ScoreRequest{V: ProtoVersion, Version: version, Plan: *plan}
	var resp ScoreResponse
	if err := c.call(ctx, http.MethodPost, PathScore, &req, &resp, true); err != nil {
		return nil, err
	}
	return &resp.Stats, nil
}

// Gather runs query phase 2 under the global maxima. Like Score, it stays
// only for the benchmark's traced replay.
func (c *Client) Gather(ctx context.Context, version string, plan *search.Plan, maxCos, maxConf, maxAuth float64) ([]Hit, error) {
	req := GatherRequest{V: ProtoVersion, Version: version, Plan: *plan,
		MaxCos: maxCos, MaxConf: maxConf, MaxAuth: maxAuth}
	var resp GatherResponse
	if err := c.call(ctx, http.MethodPost, PathGather, &req, &resp, true); err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// Insert applies one routed ingest batch. Never hedged: link and redirect
// rows are append-only, so a duplicate delivery would double edges in the
// link graph.
func (c *Client) Insert(ctx context.Context, req *InsertRequest) (*InsertResponse, error) {
	req.V = ProtoVersion
	var resp InsertResponse
	if err := c.call(ctx, http.MethodPost, PathInsert, req, &resp, false); err != nil {
		return nil, err
	}
	return &resp, nil
}

// call runs one RPC: breaker gate, marshal once, then one or (hedged /
// retried) two attempts. hedge enables the second attempt for idempotent
// calls; non-idempotent ones run exactly one attempt.
func (c *Client) call(ctx context.Context, method, path string, reqBody, respBody any, hedge bool) error {
	mCliRequests.Inc()
	start := time.Now()
	defer mCliNanos.ObserveSince(start)

	if ok, retryIn := c.brk.Allow(c.base); !ok {
		mCliBreakerOpen.Inc()
		mCliErrors.Inc()
		return &BreakerOpenError{Addr: c.base, RetryIn: retryIn}
	}
	var payload []byte
	if reqBody != nil {
		var err error
		if payload, err = json.Marshal(reqBody); err != nil {
			mCliErrors.Inc()
			return err
		}
	}
	err := c.attempts(ctx, method, path, payload, respBody, hedge)
	if err != nil {
		mCliErrors.Inc()
	}
	return err
}

// attempts runs the hedged-retry schedule: attempt 1 immediately; attempt
// 2 when attempt 1 either fails retryably or is still in flight after
// HedgeAfter. First success wins; a non-retryable error (conflict,
// protocol) returns immediately.
func (c *Client) attempts(ctx context.Context, method, path string, payload []byte, respBody any, hedge bool) error {
	type result struct {
		idx int
		err error
		raw []byte
	}
	ch := make(chan result, 2)
	run := func(idx int) {
		go func() {
			raw, err := c.attempt(ctx, method, path, payload)
			ch <- result{idx: idx, err: err, raw: raw}
		}()
	}
	run(1)
	attempts, outstanding := 1, 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedge && c.opt.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.opt.HedgeAfter)
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.idx == 2 {
					mCliHedgeWins.Inc()
				}
				if respBody == nil {
					return nil
				}
				return json.Unmarshal(r.raw, respBody)
			}
			if !retryable(r.err) {
				return r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if hedge && attempts < 2 && ctx.Err() == nil {
				attempts++
				outstanding++
				mCliRetries.Inc()
				hedgeC = nil
				run(2)
				continue
			}
			if outstanding == 0 {
				return firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if attempts < 2 {
				attempts++
				outstanding++
				mCliHedges.Inc()
				run(2)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// attempt performs one HTTP exchange under the per-attempt timeout and
// feeds the breaker: transport errors and 5xx are failures; any parseable
// answer — including 409 conflicts — proves the server alive and counts as
// breaker success.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.brk.OnFailure(c.base)
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.brk.OnFailure(c.base)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		c.brk.OnFailure(c.base)
		return nil, statusErr(resp.StatusCode, raw)
	}
	c.brk.OnSuccess(c.base)
	if resp.StatusCode == http.StatusConflict {
		var er ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Code != "" {
			return nil, &ConflictError{Code: er.Code, Have: er.Have}
		}
		return nil, statusErr(resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp.StatusCode, raw)
	}
	return raw, nil
}

// statusErr builds a StatusError from a raw non-2xx body.
func statusErr(status int, raw []byte) error {
	var er ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Code != "" {
		return &StatusError{Status: status, Code: er.Code, Message: er.Message}
	}
	msg := string(raw)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return &StatusError{Status: status, Message: msg}
}

// retryable reports whether an attempt error may be retried on a second
// attempt: transport failures, timeouts, and 5xx are; conflicts and
// protocol errors are deterministic and are not.
func retryable(err error) bool {
	var ce *ConflictError
	if errors.As(err, &ce) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true
}
