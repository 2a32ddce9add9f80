// Package admit implements server-side admission control for the query
// serving path: a bounded in-flight semaphore with a small bounded wait
// queue and a queue deadline. Work beyond the queue — or work that waits
// past the deadline — is load-shed with an explicit ShedError carrying a
// Retry-After hint, so portald answers overload with a fast 429 instead of
// unbounded queueing (the server-side mirror of the per-server circuit
// breakers the coordinator uses as a client; BUbiNG's bounded-resource
// discipline applied to serving).
//
// The controller never allocates on the admit fast path (a channel send)
// and reports into the process-wide metrics registry: in-flight and queue
// depth gauges, admitted/shed counters split by cause, and the admission
// wait histogram a shed-storm diagnosis starts from (see OPERATIONS.md).
package admit

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
)

var (
	mAdmitted   = metrics.NewCounter("admit_admitted_total")
	mShed       = metrics.NewCounter("admit_shed_total")
	mShedQueue  = metrics.NewCounter("admit_shed_queue_full_total")
	mShedWait   = metrics.NewCounter("admit_shed_deadline_total")
	mCanceled   = metrics.NewCounter("admit_canceled_total")
	mInFlight   = metrics.NewGauge("admit_inflight")
	mQueueDepth = metrics.NewGauge("admit_queue_depth")
	mWaitNanos  = metrics.NewHistogram("admit_wait_nanos")
	mShedTenant = metrics.NewCounter("admit_shed_tenant_limit_total")
)

// ShedError reports a load-shed admission attempt. Handlers translate it
// into 429 Too Many Requests with a Retry-After header.
type ShedError struct {
	// Reason is "queue_full" (the wait queue was at capacity on arrival),
	// "deadline" (a queue slot was granted but no in-flight slot freed
	// within the queue timeout), or "tenant_limit" (the tenant's own
	// in-flight quota was exhausted; the global gate had capacity).
	Reason string
	// Tenant identifies the portal whose quota shed the request; empty for
	// global sheds. Handlers surface it so a hot tenant's 429s are
	// attributable.
	Tenant string
	// RetryAfter is the backoff hint for the client.
	RetryAfter time.Duration
}

// Error names the shed's reason, its tenant if any, and the backoff hint.
func (e *ShedError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("admission shed (%s, tenant %q), retry after %s", e.Reason, e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("admission shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Options configures a Controller. Zero or negative fields take the
// defaults; MaxQueue < 0 disables queueing entirely (arrivals beyond
// MaxInFlight shed immediately).
type Options struct {
	// MaxInFlight bounds concurrently admitted requests (default 64).
	MaxInFlight int
	// MaxQueue bounds waiters beyond MaxInFlight (default 2×MaxInFlight;
	// < 0 for no queue).
	MaxQueue int
	// QueueTimeout bounds how long a queued request may wait for a slot
	// before it is shed (default 100ms).
	QueueTimeout time.Duration
	// RetryAfter is the backoff hint attached to ShedErrors (default 1s).
	RetryAfter time.Duration
	// TenantMaxInFlight, when positive, additionally bounds the in-flight
	// requests of each tenant, so one hot portal saturating the process
	// sheds only its own traffic while quieter portals keep their
	// capacity. 0 disables per-tenant quotas (single-portal deployments
	// pay nothing).
	TenantMaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	switch {
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	case o.MaxQueue == 0:
		o.MaxQueue = 2 * o.MaxInFlight
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 100 * time.Millisecond
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Controller is the admission gate. All methods are safe for concurrent
// use.
type Controller struct {
	opts    Options
	sem     chan struct{}
	waiters atomic.Int64

	// Per-tenant in-flight semaphores, created on a tenant's first request
	// (only when TenantMaxInFlight > 0).
	tenantMu   sync.Mutex
	tenantSems map[string]chan struct{}
}

// New builds a controller from opts.
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	c := &Controller{opts: opts, sem: make(chan struct{}, opts.MaxInFlight)}
	if opts.TenantMaxInFlight > 0 {
		c.tenantSems = make(map[string]chan struct{})
	}
	return c
}

// Options returns the controller's resolved configuration.
func (c *Controller) Options() Options { return c.opts }

// InFlight returns the number of currently admitted requests.
func (c *Controller) InFlight() int { return len(c.sem) }

// Queued returns the number of requests waiting for a slot.
func (c *Controller) Queued() int { return int(c.waiters.Load()) }

// Acquire admits the caller or sheds it. On success it returns a release
// function (idempotent; must be called exactly when the request finishes).
// On overload it returns a *ShedError; if ctx is done first it returns
// ctx.Err().
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	return c.AcquireTenant(ctx, "")
}

// tenantSem returns (creating on first use) the tenant's in-flight
// semaphore, or nil when per-tenant quotas are disabled.
func (c *Controller) tenantSem(tenant string) chan struct{} {
	if c.tenantSems == nil {
		return nil
	}
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	sem, ok := c.tenantSems[tenant]
	if !ok {
		sem = make(chan struct{}, c.opts.TenantMaxInFlight)
		c.tenantSems[tenant] = sem
	}
	return sem
}

// TenantInFlight returns the number of currently admitted requests of one
// tenant (0 when per-tenant quotas are disabled).
func (c *Controller) TenantInFlight(tenant string) int {
	if c.tenantSems == nil {
		return 0
	}
	c.tenantMu.Lock()
	sem := c.tenantSems[tenant]
	c.tenantMu.Unlock()
	return len(sem)
}

// AcquireTenant is Acquire with the requesting tenant's identity. When
// Options.TenantMaxInFlight is set, the tenant's own quota is checked
// first (non-blocking — a tenant past its quota sheds immediately with
// Reason "tenant_limit" and its id in the ShedError, without consuming
// global queue capacity); the global gate then admits, queues or sheds as
// usual. With quotas disabled it is exactly Acquire.
func (c *Controller) AcquireTenant(ctx context.Context, tenant string) (release func(), err error) {
	tsem := c.tenantSem(tenant)
	if tsem != nil {
		select {
		case tsem <- struct{}{}:
		default:
			mShed.Inc()
			mShedTenant.Inc()
			metrics.TenantCounter("admit_shed_tenant_limit_total", tenant).Inc()
			return nil, &ShedError{Reason: "tenant_limit", Tenant: tenant, RetryAfter: c.opts.RetryAfter}
		}
	}
	// Local, not the named return: the closure below must capture the
	// global release, never itself.
	global, gerr := c.acquireGlobal(ctx)
	if gerr != nil {
		if tsem != nil {
			<-tsem
		}
		return nil, gerr
	}
	if tsem == nil {
		return global, nil
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			global()
			<-tsem
		})
	}, nil
}

// acquireGlobal runs the process-wide admission gate: fast-path semaphore
// send, then the bounded wait queue with its deadline.
func (c *Controller) acquireGlobal(ctx context.Context) (release func(), err error) {
	start := time.Now()
	select {
	case c.sem <- struct{}{}:
		mInFlight.Add(1)
		mAdmitted.Inc()
		mWaitNanos.ObserveSince(start)
		return c.releaseFunc(), nil
	default:
	}
	if c.waiters.Add(1) > int64(c.opts.MaxQueue) {
		c.waiters.Add(-1)
		mShed.Inc()
		mShedQueue.Inc()
		return nil, &ShedError{Reason: "queue_full", RetryAfter: c.opts.RetryAfter}
	}
	mQueueDepth.Add(1)
	defer func() {
		c.waiters.Add(-1)
		mQueueDepth.Add(-1)
	}()
	timer := time.NewTimer(c.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case c.sem <- struct{}{}:
		mInFlight.Add(1)
		mAdmitted.Inc()
		mWaitNanos.ObserveSince(start)
		return c.releaseFunc(), nil
	case <-timer.C:
		mShed.Inc()
		mShedWait.Inc()
		return nil, &ShedError{Reason: "deadline", RetryAfter: c.opts.RetryAfter}
	case <-ctx.Done():
		mCanceled.Inc()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the slot exactly once even if called repeatedly.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			<-c.sem
			mInFlight.Add(-1)
		})
	}
}
