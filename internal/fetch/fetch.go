// Package fetch implements BINGO!'s page-retrieval layer (§4.2): URL
// validation against the paper's length limits, its own HTTP request cycle
// with full timeout control (the reason the original system bypassed Java's
// HTTPUrlConnection), MIME-type filtering with per-type size limits,
// redirect chains up to a configurable depth, multi-fingerprint duplicate
// detection, and slow/bad host bookkeeping.
//
// On top of the paper's policy layer sits a resilience layer: retries with
// capped exponential backoff and deterministic decorrelated jitter
// (RetryPolicy), a per-attempt timeout budget, transparent gzip decoding
// with corrupt-stream detection, redirect-loop cuts, and graceful
// degradation — a body truncated by the peer on the final attempt is
// served as a Truncated result instead of being dropped, so the document
// analyzer can still salvage it. BreakerSet, the circuit breaker, lives
// here too; the shard-call client uses it.
//
// The transport is an http.RoundTripper, so the same fetcher runs against
// the real network or against the in-process synthetic web server used by
// the experiments.
package fetch

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/urlnorm"
)

// Process-wide retrieval metrics: request outcomes by §4.2 policy class,
// redirect and byte volumes, end-to-end retrieval latency, and the
// resilience layer's retry/backoff/degradation activity.
var (
	mRequests     = metrics.NewCounter("fetch_requests_total")
	mSuccess      = metrics.NewCounter("fetch_success_total")
	mTimeouts     = metrics.NewCounter("fetch_timeouts_total")
	mDuplicates   = metrics.NewCounter("fetch_duplicates_total")
	mMIMERejected = metrics.NewCounter("fetch_mime_rejected_total")
	mTooLarge     = metrics.NewCounter("fetch_too_large_total")
	mRobotsDenied = metrics.NewCounter("fetch_robots_denied_total")
	mHTTPErrors   = metrics.NewCounter("fetch_http_errors_total")
	mOtherErrors  = metrics.NewCounter("fetch_other_errors_total")
	mRedirects    = metrics.NewCounter("fetch_redirects_total")
	mBodyBytes    = metrics.NewCounter("fetch_body_bytes_total")
	mFetchNanos   = metrics.NewHistogram("fetch_latency_nanos")

	// Resilience-layer metrics (fault classes and recovery activity).
	mRetries       = metrics.NewCounter("fetch_retries_total")
	mBackoffNanos  = metrics.NewHistogram("fetch_retry_backoff_nanos")
	mAttempts      = metrics.NewHistogram("fetch_attempts_per_fetch")
	mDegraded      = metrics.NewCounter("fetch_truncated_degraded_total")
	mCanceled      = metrics.NewCounter("fetch_canceled_total")
	mCorruptBodies = metrics.NewCounter("fetch_corrupt_body_total")
	mRedirectLoops = metrics.NewCounter("fetch_redirect_loops_total")
	mBreakerSkips  = metrics.NewCounter("fetch_breaker_open_skipped_total")
	mQuarantined   = metrics.NewCounter("fetch_hosts_quarantined_total")
	mRetrySuccess  = metrics.NewCounter("fetch_retry_success_total")
)

// ErrClass buckets a fetch error into the static label the metrics and
// trace layers record ("" for nil). The strings are constants so hot-path
// callers never allocate to classify an outcome.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDuplicate):
		return "duplicate"
	case errors.Is(err, ErrTypeRejected):
		return "mime-rejected"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrRobots):
		return "robots"
	case errors.Is(err, ErrHTTPStatus):
		return "http-status"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, ErrCorruptBody):
		return "corrupt-body"
	case errors.Is(err, ErrRedirectLoop):
		return "redirect-loop"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, dns.ErrNotFound):
		return "no-such-host"
	case errors.Is(err, ErrBadHost), errors.Is(err, ErrLockedDomain):
		return "host-policy"
	case errors.Is(err, ErrURLTooLong), errors.Is(err, ErrHostTooLong),
		errors.Is(err, ErrBadScheme), errors.Is(err, ErrTooManyHops),
		errors.Is(err, ErrEmptyRedirect):
		return "url-policy"
	default:
		return "error"
	}
}

// record updates the outcome counters for one completed Fetch.
func record(res *Result, err error) {
	switch ErrClass(err) {
	case "":
		mSuccess.Inc()
		mRedirects.Add(int64(len(res.Redirects)))
		mBodyBytes.Add(int64(len(res.Body)))
		if res.Truncated {
			mDegraded.Inc()
		}
		if res.Attempts > 1 {
			mRetrySuccess.Inc()
		}
	case "duplicate":
		mDuplicates.Inc()
	case "mime-rejected":
		mMIMERejected.Inc()
	case "too-large":
		mTooLarge.Inc()
	case "robots":
		mRobotsDenied.Inc()
	case "http-status":
		mHTTPErrors.Inc()
	case "timeout":
		mTimeouts.Inc()
	case "canceled":
		mCanceled.Inc()
	case "corrupt-body":
		mCorruptBodies.Inc()
	case "redirect-loop":
		mRedirectLoops.Inc()
	case "breaker-open":
		mBreakerSkips.Inc()
	default:
		mOtherErrors.Inc()
	}
}

// Limits from RFC 1738 / the paper's §4.2 hardening.
const (
	// MaxHostLen is the RFC 1738 hostname cap enforced to dodge crawler traps.
	MaxHostLen = 255
	// MaxURLLen reflects the common distribution of URL lengths on the Web,
	// disregarding URLs with encoded GET parameters.
	MaxURLLen = 1000
	// DefaultMaxRedirects is the paper's redirect depth (25).
	DefaultMaxRedirects = 25
)

// Validation and fetch errors.
var (
	ErrURLTooLong    = errors.New("fetch: URL exceeds maximum length")
	ErrHostTooLong   = errors.New("fetch: hostname exceeds maximum length")
	ErrBadScheme     = errors.New("fetch: unsupported URL scheme")
	ErrBadHost       = errors.New("fetch: host tagged bad for this crawl")
	ErrDuplicate     = errors.New("fetch: duplicate document")
	ErrTypeRejected  = errors.New("fetch: MIME type rejected")
	ErrTooLarge      = errors.New("fetch: body exceeds type size limit")
	ErrTooManyHops   = errors.New("fetch: redirect depth exceeded")
	ErrLockedDomain  = errors.New("fetch: domain locked for this crawl")
	ErrHTTPStatus    = errors.New("fetch: unexpected HTTP status")
	ErrEmptyRedirect = errors.New("fetch: redirect without location")
	ErrRobots        = errors.New("fetch: disallowed by robots.txt")
	// ErrCanceled marks a fetch abandoned because the CALLER's context was
	// cancelled or hit its deadline — not a peer failure. It carries no host
	// penalty, no breaker penalty, and is never retried.
	ErrCanceled = errors.New("fetch: canceled by caller")
	// ErrTruncated marks a body cut off mid-read by the peer.
	ErrTruncated = errors.New("fetch: body truncated by peer")
	// ErrCorruptBody marks a body whose declared content encoding failed to
	// decode (e.g. a corrupt gzip stream).
	ErrCorruptBody = errors.New("fetch: corrupt body encoding")
	// ErrRedirectLoop marks a redirect chain that revisited a URL.
	ErrRedirectLoop = errors.New("fetch: redirect loop")
	// ErrBreakerOpen marks a fetch refused because the host's circuit
	// breaker (Config.Breaker) is open.
	ErrBreakerOpen = errors.New("fetch: host circuit breaker open")
)

// BreakerOpenError carries the host and the cool-down remaining on an
// open breaker.
type BreakerOpenError struct {
	Host    string
	RetryIn time.Duration
}

// Error names the host whose breaker refused the fetch.
func (e *BreakerOpenError) Error() string {
	return "fetch: circuit breaker open for " + e.Host
}

// Is makes errors.Is(err, ErrBreakerOpen) work.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Result is a successfully retrieved and vetted document.
type Result struct {
	// URL is the requested URL; FinalURL differs after redirects.
	URL      string
	FinalURL string
	// IP is the resolved address of the final host (used for fingerprints
	// and recorded for the link analysis, as the paper stores redirect
	// information in the database).
	IP          string
	ContentType string
	Body        []byte
	// Redirects lists intermediate URLs, in order.
	Redirects []string
	// Elapsed is the total retrieval time.
	Elapsed time.Duration
	// Attempts is how many attempts the retrieval took (1 = first try).
	Attempts int
	// Truncated marks a degraded result: the peer cut the body mid-read on
	// the final attempt, and the partial prefix is served instead of an
	// error. Consumers should classify it with reduced confidence.
	Truncated bool

	// bodyBuf backs Body when the body was read into a pooled buffer; see
	// ReleaseBody.
	bodyBuf *bytes.Buffer
	// marks are the dedup fingerprints the visit newly recorded; see
	// Abandon.
	marks visitMarks
}

// bodyBufs recycles body read buffers across fetches. A page body is pure
// garbage once the content handlers have copied what they keep, and bodies
// are the crawler's largest single allocation.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReleaseBody hands the body buffer back to the fetcher's pool. Callers
// that have finished converting the document should call it; Body must not
// be touched afterwards. It is safe on an already-released or error Result.
func (r *Result) ReleaseBody() {
	if r.bodyBuf != nil {
		bodyBufs.Put(r.bodyBuf)
		r.bodyBuf = nil
		r.Body = nil
	}
}

// Abandon gives back a fetched page the caller will not store: it
// releases the body and takes back the visit's dedup marks (URL, IP+path,
// IP+size), so a later visit of the URL fetches the page again instead of
// dismissing it as a duplicate of one that was never stored.
func (f *Fetcher) Abandon(res *Result) {
	res.ReleaseBody()
	f.Dedup.forgetVisit(&res.marks)
}

// Config assembles the fetcher's collaborators and knobs.
type Config struct {
	// Transport performs the actual HTTP exchange. Defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Resolver maps hostnames to IPs; nil disables resolution (IP "" is
	// then used in fingerprints, degrading dedup to URL hashing only).
	Resolver *dns.Resolver
	// Types is the accepted MIME table (DefaultTypeLimits if nil).
	Types TypeLimits
	// MaxRedirects caps redirect chains (DefaultMaxRedirects if 0).
	MaxRedirects int
	// Timeout bounds ONE attempt (default 10s). With retries enabled the
	// total budget is at most MaxAttempts*Timeout plus backoff sleeps, all
	// still bounded by the caller's context.
	Timeout time.Duration
	// Retry bounds the retry loop; the zero value disables retries.
	Retry RetryPolicy
	// Breaker, when non-nil, is consulted before any attempt and fed every
	// host-level outcome. The crawl sets none: HostTracker is its one
	// per-host failure policy (§4.2), and it quarantines a host before a
	// breaker at its default threshold could open.
	Breaker *BreakerSet
	// DegradeTruncated serves a body truncated on the final attempt as a
	// Truncated result instead of an error (graceful degradation; the
	// truncation still counts as a host failure).
	DegradeTruncated bool
	// LockedDomains are host suffixes excluded from crawling, e.g. the
	// domains of major Web search engines (§5.1) or the DBLP mirrors in the
	// portal experiment.
	LockedDomains []string
	// UserAgent is sent with each request.
	UserAgent string
	// RespectRobots enables robots.txt enforcement: robots.txt is fetched
	// lazily per host and Disallow'd paths yield ErrRobots.
	RespectRobots bool
}

// Fetcher retrieves documents.
type Fetcher struct {
	cfg    Config
	Dedup  *Deduper
	Hosts  *HostTracker
	client *http.Client
	robots *robotsCache
}

// New builds a Fetcher; dedup and hosts may be shared across components.
func New(cfg Config, dedup *Deduper, hosts *HostTracker) *Fetcher {
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Types == nil {
		cfg.Types = DefaultTypeLimits()
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = DefaultMaxRedirects
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.UserAgent == "" {
		cfg.UserAgent = "BINGO-go/1.0 (+focused crawler)"
	}
	if dedup == nil {
		dedup = NewDeduper()
	}
	if hosts == nil {
		hosts = NewHostTracker(3)
	}
	return &Fetcher{
		cfg:    cfg,
		Dedup:  dedup,
		Hosts:  hosts,
		robots: newRobotsCacheIf(cfg.RespectRobots),
		client: &http.Client{
			Transport: cfg.Transport,
			// Redirects are followed manually so each hop is validated,
			// recorded and depth-limited.
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

func newRobotsCacheIf(on bool) *robotsCache {
	if !on {
		return nil
	}
	return newRobotsCache()
}

// ValidateURL applies the structural limits; it returns the parsed URL.
func (f *Fetcher) ValidateURL(raw string) (*url.URL, error) {
	if len(raw) > MaxURLLen {
		return nil, ErrURLTooLong
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("fetch: parse %q: %w", raw, err)
	}
	urlnorm.NormalizeURL(u)
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("%w: %q", ErrBadScheme, u.Scheme)
	}
	host := u.Hostname()
	if host == "" || len(host) > MaxHostLen {
		return nil, ErrHostTooLong
	}
	for _, locked := range f.cfg.LockedDomains {
		if host == locked || strings.HasSuffix(host, "."+locked) {
			return nil, fmt.Errorf("%w: %s", ErrLockedDomain, host)
		}
	}
	return u, nil
}

// Fetch retrieves raw, following redirects and enforcing every §4.2 policy.
// Duplicate documents yield ErrDuplicate. Peer failures are retried per the
// RetryPolicy with capped, jittered backoff; they are recorded against the
// host (and its circuit breaker, when one is set). Caller cancellation is
// classified as ErrCanceled and carries no penalty. Every call lands in the
// fetch_* outcome counters and the retrieval-latency histogram.
func (f *Fetcher) Fetch(ctx context.Context, raw string) (*Result, error) {
	mRequests.Inc()
	start := time.Now()
	res, err := f.fetchRetry(ctx, raw)
	mFetchNanos.ObserveSince(start)
	record(res, err)
	return res, err
}

// attemptOutcome is one attempt's classified result.
type attemptOutcome struct {
	res        *Result // partial on ErrTruncated, full on success
	err        error
	failHost   string        // host the failure is attributed to ("" = none)
	retryAfter time.Duration // positive when the peer sent Retry-After
}

// fetchRetry wraps the single-attempt retrieval cycle in the resilience
// loop: policy checks once, then up to Retry.MaxAttempts attempts with
// backoff, host/breaker bookkeeping per attempt, and truncation
// degradation on the final one.
func (f *Fetcher) fetchRetry(ctx context.Context, raw string) (*Result, error) {
	start := time.Now()
	u, err := f.ValidateURL(raw)
	if err != nil {
		return nil, err
	}
	host := u.Hostname()
	if f.Hosts.Bad(host) {
		return nil, fmt.Errorf("%w: %s", ErrBadHost, host)
	}
	if f.cfg.Breaker != nil {
		if ok, retryIn := f.cfg.Breaker.Allow(host); !ok {
			return nil, &BreakerOpenError{Host: host, RetryIn: retryIn}
		}
	}
	if f.Dedup.SeenURL(u.String()) {
		return nil, ErrDuplicate
	}
	// marks lists the fingerprints this visit newly recorded: a cancelled
	// visit takes them back, and a successful one hands them to its Result
	// for Abandon.
	marks := visitMarks{url: u.String()}

	attempts := f.cfg.Retry.attempts()
	var prevDelay time.Duration
	for attempt := 1; ; attempt++ {
		out := f.fetchAttempt(ctx, u, raw, attempt == 1, &marks)

		// Caller cancellation first: a dead parent context means WE are
		// shutting down, not that the peer failed — no host penalty, no
		// breaker penalty, no retry (the satellite fix: a cancellation
		// mid-body-read used to be booked as a host error).
		if cerr := ctx.Err(); cerr != nil && out.err != nil {
			releasePartial(out.res)
			f.Dedup.forgetVisit(&marks)
			return nil, fmt.Errorf("%w: %v", ErrCanceled, cerr)
		}

		if out.failHost != "" {
			if f.Hosts.Failure(out.failHost) {
				mQuarantined.Inc()
			}
			if f.cfg.Breaker != nil {
				f.cfg.Breaker.OnFailure(out.failHost)
			}
		}

		if out.err == nil {
			f.Hosts.Success(out.res.finalHost())
			if f.cfg.Breaker != nil {
				f.cfg.Breaker.OnSuccess(host)
			}
			out.res.Attempts = attempt
			out.res.marks = marks
			out.res.Elapsed = time.Since(start)
			mAttempts.Observe(int64(attempt))
			return out.res, nil
		}

		last := attempt >= attempts || !Retryable(out.err) || f.Hosts.Bad(host)
		if last {
			mAttempts.Observe(int64(attempt))
			// Graceful degradation: a truncated-but-nonempty body on the
			// final attempt is served, flagged, for best-effort analysis.
			if f.cfg.DegradeTruncated && out.res != nil &&
				errors.Is(out.err, ErrTruncated) && len(out.res.Body) > 0 {
				out.res.Truncated = true
				out.res.Attempts = attempt
				out.res.marks = marks
				out.res.Elapsed = time.Since(start)
				return out.res, nil
			}
			releasePartial(out.res)
			return nil, out.err
		}
		releasePartial(out.res)

		delay := f.cfg.Retry.Backoff(raw, attempt+1, prevDelay, out.retryAfter)
		prevDelay = delay
		mRetries.Inc()
		mBackoffNanos.Observe(delay.Nanoseconds())
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			f.Dedup.forgetVisit(&marks)
			return nil, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
		}
	}
}

// releasePartial returns a partial result's pooled buffer (nil-safe).
func releasePartial(res *Result) {
	if res != nil {
		res.ReleaseBody()
	}
}

// finalHost returns the hostname of the final URL (fallback: request URL).
func (r *Result) finalHost() string {
	if u, err := url.Parse(r.FinalURL); err == nil && u.Hostname() != "" {
		return u.Hostname()
	}
	if u, err := url.Parse(r.URL); err == nil {
		return u.Hostname()
	}
	return ""
}

// fetchAttempt runs one complete retrieval attempt (resolve, redirect
// chain, body read, decode, fingerprints) under its own per-attempt
// timeout. dedup disables the duplicate verdicts on retries: the first
// attempt already recorded this URL's fingerprints, so re-checking them
// would dismiss the retry as a duplicate of itself (fingerprints are still
// recorded so later genuine duplicates are caught). Each (ip, path)
// fingerprint the attempt newly records is added to marks.
func (f *Fetcher) fetchAttempt(parent context.Context, u *url.URL, raw string, dedup bool, marks *visitMarks) attemptOutcome {
	ctx, cancel := context.WithTimeout(parent, f.cfg.Timeout)
	defer cancel()

	res := &Result{URL: raw}
	cur := u
	var chain map[string]struct{} // redirect-loop detection, lazily built
	for hop := 0; ; hop++ {
		curHost := cur.Hostname()
		if hop > f.cfg.MaxRedirects {
			return attemptOutcome{err: ErrTooManyHops, failHost: curHost}
		}
		ip := ""
		if f.cfg.Resolver != nil {
			rec, rerr := f.cfg.Resolver.Resolve(ctx, curHost)
			if rerr != nil {
				return attemptOutcome{
					err:      fmt.Errorf("fetch: resolve %s: %w", curHost, rerr),
					failHost: curHost,
				}
			}
			ip = rec.IP
		}
		// Fingerprint 2: IP + path (catches host aliases).
		path := cur.EscapedPath()
		seen := f.Dedup.SeenIPPath(ip, path)
		if !seen {
			marks.ipPaths = append(marks.ipPaths, [2]string{ip, path})
		}
		if seen && dedup {
			// A redirect hop that lands back on the requested URL's own
			// host+path (typically with a shuffled query — the classic
			// session-id cycle) is a loop charged to the host, not a
			// duplicate: the only reason the fingerprint is seen is that WE
			// recorded it when this same chain started.
			if hop > 0 && cur.Hostname() == u.Hostname() && path == u.EscapedPath() {
				return attemptOutcome{
					err:      fmt.Errorf("%w: %s revisits the start path", ErrRedirectLoop, cur),
					failHost: curHost,
				}
			}
			return attemptOutcome{err: ErrDuplicate}
		}
		if f.robots != nil && cur.Path != "/robots.txt" &&
			!f.robotsAllowed(ctx, cur.Scheme, cur.Host, path) {
			return attemptOutcome{err: fmt.Errorf("%w: %s", ErrRobots, cur)}
		}

		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, cur.String(), nil)
		if rerr != nil {
			return attemptOutcome{err: rerr}
		}
		req.Header.Set("User-Agent", f.cfg.UserAgent)
		resp, rerr := f.client.Do(req)
		if rerr != nil {
			return attemptOutcome{
				err:      fmt.Errorf("fetch: get %s: %w", cur, rerr),
				failHost: curHost,
			}
		}

		if resp.StatusCode >= 300 && resp.StatusCode < 400 {
			loc := resp.Header.Get("Location")
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			if loc == "" {
				return attemptOutcome{err: ErrEmptyRedirect}
			}
			next, perr := cur.Parse(loc)
			if perr != nil {
				return attemptOutcome{err: fmt.Errorf("fetch: redirect %q: %w", loc, perr)}
			}
			if _, verr := f.ValidateURL(next.String()); verr != nil {
				return attemptOutcome{err: verr}
			}
			// Loop cut: revisiting any URL of this chain (including the
			// start) is a hard peer fault — poisoned hosts love 302 cycles.
			if chain == nil {
				chain = map[string]struct{}{cur.String(): {}}
			} else {
				chain[cur.String()] = struct{}{}
			}
			if _, looped := chain[next.String()]; looped {
				return attemptOutcome{
					err:      fmt.Errorf("%w: %s revisits %s", ErrRedirectLoop, cur, next),
					failHost: curHost,
				}
			}
			res.Redirects = append(res.Redirects, next.String())
			cur = next
			continue
		}
		if resp.StatusCode != http.StatusOK {
			retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			out := attemptOutcome{
				err:        &StatusError{Code: resp.StatusCode, URL: cur.String(), RetryAfter: retryAfter},
				retryAfter: retryAfter,
			}
			// 5xx is a server failure; 4xx (including 429 throttling) is not
			// held against the host's health.
			if resp.StatusCode >= 500 {
				out.failHost = curHost
			}
			return out
		}

		ct := resp.Header.Get("Content-Type")
		limit, ok := f.cfg.Types.Allowed(ct)
		if !ok {
			resp.Body.Close()
			return attemptOutcome{err: fmt.Errorf("%w: %s", ErrTypeRejected, canonicalType(ct))}
		}
		// Header-declared size check before reading.
		if resp.ContentLength > limit {
			resp.Body.Close()
			return attemptOutcome{err: fmt.Errorf("%w: declared %d > %d", ErrTooLarge, resp.ContentLength, limit)}
		}
		// Real-size check while reading: abort as soon as the limit passes.
		buf := bodyBufs.Get().(*bytes.Buffer)
		buf.Reset()
		_, rerr = buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
		resp.Body.Close()
		if rerr != nil {
			// The peer cut the stream mid-body. Keep the partial prefix so
			// the final attempt can degrade instead of dropping the page.
			res.bodyBuf = buf
			res.Body = buf.Bytes()
			res.FinalURL = cur.String()
			res.IP = ip
			res.ContentType = canonicalType(ct)
			return attemptOutcome{
				res:      res,
				err:      fmt.Errorf("%w: read %s: %v", ErrTruncated, cur, rerr),
				failHost: curHost,
			}
		}
		body := buf.Bytes()
		if int64(len(body)) > limit {
			bodyBufs.Put(buf)
			return attemptOutcome{err: fmt.Errorf("%w: body exceeds %d", ErrTooLarge, limit)}
		}
		res.bodyBuf = buf

		// Transparent gzip decode: a declared Content-Encoding that fails
		// to decode is a corrupt body — a retryable peer fault, and the
		// signature fault of poisoned hosts in the chaos suite.
		if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			decoded, derr := decodeBody(enc, body, limit)
			if derr != nil {
				releasePartial(res)
				return attemptOutcome{
					err:      fmt.Errorf("%w: %s: %v", ErrCorruptBody, cur, derr),
					failHost: curHost,
				}
			}
			if decoded != nil {
				bodyBufs.Put(res.bodyBuf)
				res.bodyBuf = decoded
				body = decoded.Bytes()
			}
		}

		// Fingerprint 3: IP + filesize.
		size := int64(len(body))
		sizeSeen := f.Dedup.SeenIPSize(ip, size)
		if sizeSeen && dedup {
			releasePartial(res)
			return attemptOutcome{err: ErrDuplicate}
		}
		if !sizeSeen {
			marks.ipSizes = append(marks.ipSizes, ipSize{ip, size})
		}

		res.FinalURL = cur.String()
		res.IP = ip
		res.ContentType = canonicalType(ct)
		res.Body = body
		return attemptOutcome{res: res}
	}
}

// decodeBody inflates a gzip-encoded body into a fresh pooled buffer. It
// returns (nil, nil) for identity/unknown encodings (served as-is).
func decodeBody(encoding string, body []byte, limit int64) (*bytes.Buffer, error) {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "gzip", "x-gzip":
	case "", "identity":
		return nil, nil
	default:
		return nil, nil // unknown encodings pass through untouched
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out := bodyBufs.Get().(*bytes.Buffer)
	out.Reset()
	if _, err := out.ReadFrom(io.LimitReader(zr, limit+1)); err != nil {
		bodyBufs.Put(out)
		return nil, err
	}
	if err := zr.Close(); err != nil {
		bodyBufs.Put(out)
		return nil, err
	}
	if int64(out.Len()) > limit {
		bodyBufs.Put(out)
		return nil, fmt.Errorf("decoded body exceeds %d", limit)
	}
	return out, nil
}

// parseRetryAfter reads a Retry-After header given in seconds (the
// HTTP-date form is ignored; crawls don't wait minutes for one host).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
