package fetch

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"time"
)

// RetryPolicy bounds the fetcher's retry loop (§4.2 hardening: the hostile
// part of the system is the Web, and transient failures — timeouts, resets,
// 5xx, truncated bodies — are the common case, not the exception). Each
// attempt runs under its own per-attempt timeout (Config.Timeout); between
// attempts the fetcher sleeps a capped exponential backoff with
// decorrelated jitter. The jitter is derived from a hash of the URL and the
// attempt number instead of a global rand source, so a crawl replayed with
// the same inputs backs off identically — the property the chaos suite's
// determinism test relies on.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per Fetch (<=1 disables
	// retries; the zero value keeps the pre-resilience single-shot
	// behaviour).
	MaxAttempts int
	// BaseDelay is the backoff floor (default 100ms when retries are on).
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep and any honored Retry-After hint
	// (default 2s when retries are on).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

// splitmix64 is the SplitMix64 finalizer; it turns a weakly mixed hash into
// uniform bits without any allocation or shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a URL and attempt number to a deterministic uniform in
// [0, 1).
func unitFloat(url string, attempt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(url))
	v := splitmix64(h.Sum64() + uint64(attempt)*0x9e3779b97f4a7c15)
	return float64(v>>11) / float64(1<<53)
}

// Backoff computes the sleep before the given retry attempt (attempt >= 2)
// using the decorrelated-jitter formula: the delay is drawn uniformly from
// [base, prev*3], clamped to [base, max]. A positive retryAfter (a 429/503
// Retry-After hint) overrides the formula, still clamped to max.
func (p RetryPolicy) Backoff(url string, attempt int, prev, retryAfter time.Duration) time.Duration {
	base, max := p.base(), p.max()
	if retryAfter > 0 {
		if retryAfter > max {
			return max
		}
		return retryAfter
	}
	if prev < base {
		prev = base
	}
	hi := prev * 3
	if hi > max {
		hi = max
	}
	d := base + time.Duration(unitFloat(url, attempt)*float64(hi-base))
	if d < base {
		d = base
	}
	if d > max {
		d = max
	}
	return d
}

// StatusError is an ErrHTTPStatus carrying the concrete status code and any
// Retry-After hint, so the retry loop can tell a retryable 429/5xx from a
// permanent 4xx without string matching.
type StatusError struct {
	Code       int
	URL        string
	RetryAfter time.Duration
}

// Error names the status and the URL that answered it.
func (e *StatusError) Error() string {
	return "fetch: unexpected HTTP status " + strconv.Itoa(e.Code) + " for " + e.URL
}

// Is makes errors.Is(err, ErrHTTPStatus) keep working for callers that only
// care about the class.
func (e *StatusError) Is(target error) bool { return target == ErrHTTPStatus }

// retryableStatus reports whether an HTTP status is worth another attempt:
// 429 (throttled) and all 5xx. Other 4xx are the server's final word.
func retryableStatus(code int) bool {
	return code == 429 || code >= 500
}

// Retryable reports whether err is a transient peer failure that a later
// attempt may clear: timeouts, transport/connection errors, retryable HTTP
// statuses, truncated or corrupt bodies, and transient DNS failures.
// Policy verdicts (bad scheme, MIME rejection, robots, dedup, ...) and
// caller cancellation are never retryable.
func Retryable(err error) bool {
	var se *StatusError
	switch {
	case err == nil, errors.Is(err, ErrCanceled):
		return false
	case errors.As(err, &se):
		return retryableStatus(se.Code)
	case errors.Is(err, ErrTruncated), errors.Is(err, ErrCorruptBody),
		errors.Is(err, ErrRedirectLoop):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return true // per-attempt timeout (caller deadlines are ErrCanceled)
	}
	// Transport/connection failures and transient DNS errors fall in the
	// catch-all class; authoritative NXDOMAIN ("no-such-host") does not.
	return ErrClass(err) == "error"
}
