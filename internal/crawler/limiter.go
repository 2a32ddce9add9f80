package crawler

import (
	"strings"
	"sync"
	"time"
)

// hostLimiter enforces the paper's politeness caps (§5.1): at most
// maxPerHost parallel connections to one host and maxPerDomain to one
// recognized domain, plus an optional minimum delay between consecutive
// requests to the same host (crawl-delay style politeness).
type hostLimiter struct {
	mu           sync.Mutex
	cond         *sync.Cond
	hostCount    map[string]int
	domainCount  map[string]int
	nextAllowed  map[string]time.Time
	maxPerHost   int
	maxPerDomain int
	perHostDelay time.Duration
	closed       bool
}

func newHostLimiterDelay(maxPerHost, maxPerDomain int, delay time.Duration) *hostLimiter {
	if maxPerHost <= 0 {
		maxPerHost = 2
	}
	if maxPerDomain <= 0 {
		maxPerDomain = 5
	}
	l := &hostLimiter{
		hostCount:    make(map[string]int),
		domainCount:  make(map[string]int),
		nextAllowed:  make(map[string]time.Time),
		maxPerHost:   maxPerHost,
		maxPerDomain: maxPerDomain,
		perHostDelay: delay,
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Acquire blocks until a slot for host is free (and, with a per-host delay
// configured, until the host's cool-down has elapsed); it returns false if
// the limiter was closed while waiting.
func (l *hostLimiter) Acquire(host string) bool {
	domain := RegisteredDomain(host)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && (l.hostCount[host] >= l.maxPerHost || l.domainCount[domain] >= l.maxPerDomain) {
			l.cond.Wait()
		}
		if l.closed {
			return false
		}
		if l.perHostDelay > 0 {
			if wait := time.Until(l.nextAllowed[host]); wait > 0 {
				// Sleep outside the lock, then re-check the caps.
				l.mu.Unlock()
				time.Sleep(wait)
				l.mu.Lock()
				continue
			}
			l.nextAllowed[host] = time.Now().Add(l.perHostDelay)
		}
		l.hostCount[host]++
		l.domainCount[domain]++
		return true
	}
}

// Release frees a slot.
func (l *hostLimiter) Release(host string) {
	domain := RegisteredDomain(host)
	l.mu.Lock()
	if l.hostCount[host] > 0 {
		l.hostCount[host]--
		if l.hostCount[host] == 0 {
			delete(l.hostCount, host)
		}
	}
	if l.domainCount[domain] > 0 {
		l.domainCount[domain]--
		if l.domainCount[domain] == 0 {
			delete(l.domainCount, domain)
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Close releases all waiters.
func (l *hostLimiter) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// RegisteredDomain approximates the recognized domain as the last two
// labels of the hostname ("cs00.databases.example" -> "databases.example").
func RegisteredDomain(host string) string {
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	prev := strings.LastIndexByte(host[:last], '.')
	if prev < 0 {
		return host
	}
	return host[prev+1:]
}
