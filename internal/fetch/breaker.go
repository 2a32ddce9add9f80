package fetch

import (
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
)

// Breaker state gauges and transition counters, summed over every
// BreakerSet in the process (in a coordinator, one key per shard server).
var (
	mBreakersOpen    = metrics.NewGauge("fetch_breakers_open")
	mBreakerOpened   = metrics.NewCounter("fetch_breaker_opened_total")
	mBreakerHalfOpen = metrics.NewCounter("fetch_breaker_halfopen_total")
	mBreakerClosed   = metrics.NewCounter("fetch_breaker_closed_total")
	mBreakerRejected = metrics.NewCounter("fetch_breaker_rejected_total")
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected until the open window elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe requests may pass; one
	// success closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

// String names the state: "closed", "open" or "half-open".
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a BreakerSet.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a closed
	// breaker (default 5).
	FailureThreshold int
	// OpenFor is how long a tripped breaker rejects before moving to
	// half-open (default 15s).
	OpenFor time.Duration
	// HalfOpenProbes is how many concurrent probe requests a half-open
	// breaker admits (default 1).
	HalfOpenProbes int
	// Now allows tests to control time.
	Now func() time.Time
}

func (c *BreakerConfig) fill() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 15 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// breaker is one host's circuit state; all fields are guarded by the
// owning BreakerSet's mutex.
type breaker struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probes   int       // in-flight half-open probes
}

// BreakerSet holds one circuit breaker per key — a host, or a shard
// server's address: after FailureThreshold consecutive failures the key is
// refused for OpenFor, then re-probed, so a server that comes back is used
// again. rpc.Client and the coordinator guard shard calls with it; the
// crawl's per-host policy is HostTracker.
type BreakerSet struct {
	mu    sync.Mutex
	cfg   BreakerConfig
	hosts map[string]*breaker
}

// NewBreakerSet builds an empty set.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	cfg.fill()
	return &BreakerSet{cfg: cfg, hosts: make(map[string]*breaker)}
}

// Allow reports whether a request to host may proceed. While the breaker is
// open it returns false and the remaining cool-down, the earliest a retry
// can pass. A half-open breaker admits up to HalfOpenProbes concurrent
// probes; each admitted probe MUST be matched by an OnSuccess or OnFailure
// call.
func (b *BreakerSet) Allow(host string) (ok bool, retryIn time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.hosts[host]
	if br == nil {
		return true, 0
	}
	switch br.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		remaining := b.cfg.OpenFor - b.cfg.Now().Sub(br.openedAt)
		if remaining > 0 {
			mBreakerRejected.Inc()
			return false, remaining
		}
		br.state = BreakerHalfOpen
		br.probes = 0
		mBreakerHalfOpen.Inc()
		mBreakersOpen.Add(-1)
		fallthrough
	default: // half-open
		if br.probes >= b.cfg.HalfOpenProbes {
			mBreakerRejected.Inc()
			return false, b.cfg.OpenFor / 4
		}
		br.probes++
		return true, 0
	}
}

// OnSuccess records a successful exchange with host: a closed breaker
// forgets accumulated failures, a half-open breaker closes.
func (b *BreakerSet) OnSuccess(host string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.hosts[host]
	if br == nil {
		return
	}
	switch br.state {
	case BreakerHalfOpen:
		mBreakerClosed.Inc()
		fallthrough
	default:
		// Fully healed hosts are evicted so the map does not accumulate an
		// entry per healthy host for the whole crawl.
		delete(b.hosts, host)
	}
}

// OnFailure records a failed exchange: a closed breaker counts toward the
// threshold and trips when it is reached; a half-open probe failure reopens
// immediately.
func (b *BreakerSet) OnFailure(host string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.hosts[host]
	if br == nil {
		br = &breaker{}
		b.hosts[host] = br
	}
	switch br.state {
	case BreakerOpen:
		// Late failure from a request admitted before the trip; nothing to do.
	case BreakerHalfOpen:
		br.state = BreakerOpen
		br.openedAt = b.cfg.Now()
		br.failures = 0
		mBreakerOpened.Inc()
		mBreakersOpen.Add(1)
	default:
		br.failures++
		if br.failures >= b.cfg.FailureThreshold {
			br.state = BreakerOpen
			br.openedAt = b.cfg.Now()
			br.failures = 0
			mBreakerOpened.Inc()
			mBreakersOpen.Add(1)
		}
	}
}

// State returns host's current breaker position (open breakers past their
// window report half-open only once probed via Allow).
func (b *BreakerSet) State(host string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if br := b.hosts[host]; br != nil {
		return br.state
	}
	return BreakerClosed
}
