// Package faults is a seeded, deterministic fault-injection plane for the
// synthetic web. It wraps the in-process transport and the DNS simulation
// with per-host fault profiles — connection refused, read stalls, 429/5xx
// with Retry-After, mid-body truncation, corrupt gzip, redirect loops,
// slow-drip bodies, and flapping hosts that recover after N requests.
//
// Every decision is a pure function of (seed, host, URL, per-URL request
// index): there is no shared rand.Source whose consumption order could
// differ between runs, so a chaos crawl replayed with the same seed and
// corpus injects exactly the same faults at exactly the same points, even
// with concurrent workers. That property is what lets the chaos suite
// assert exact retry counts and identical result sets across runs.
//
// A host's CLASS (healthy, flaky, slow, poisoned, flapping) is assigned by
// hashing (seed, host) against the profile's fractions; WHAT a faulty host
// does to a given request is derived from further hash bits. Poisoned
// hosts fail every request the same way (their fault kind is stable per
// host), so the crawl's host tracker inevitably quarantines them; flaky
// hosts fail a fraction of requests with transient faults that a retry
// clears; slow hosts drip bodies after a deterministic delay and
// occasionally stall past the attempt timeout.
package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/metrics"
)

// Process-wide injection counters, one per fault kind, plus the slow-drip
// delay histogram. The chaos suite reads these to assert that a profile
// actually exercised the fault classes it claims to.
var (
	mInjected    = metrics.NewCounter("faults_injected_total")
	mRefused     = metrics.NewCounter("faults_refused_total")
	mStalls      = metrics.NewCounter("faults_stall_total")
	mHTTP500     = metrics.NewCounter("faults_http500_total")
	mHTTP429     = metrics.NewCounter("faults_http429_total")
	mTruncated   = metrics.NewCounter("faults_truncate_total")
	mCorrupt     = metrics.NewCounter("faults_corrupt_gzip_total")
	mRedirLoop   = metrics.NewCounter("faults_redirect_loop_total")
	mSlowDrips   = metrics.NewCounter("faults_slow_drip_total")
	mDNSTimeouts = metrics.NewCounter("faults_dns_timeouts_total")
	mDripNanos   = metrics.NewHistogram("faults_slow_drip_delay_nanos")
)

// Class is a host's assigned behaviour under a profile.
type Class int

// Host classes.
const (
	// ClassHealthy hosts are untouched.
	ClassHealthy Class = iota
	// ClassFlaky hosts fail a fraction of requests with transient faults
	// (refused, stall, 500, 429) that clear on retry.
	ClassFlaky
	// ClassSlow hosts drip bodies after a deterministic delay and
	// occasionally stall past the attempt timeout.
	ClassSlow
	// ClassPoisoned hosts fail every request with a per-host stable fault
	// (corrupt gzip, redirect loop, refused, 500, truncation); the crawl
	// must quarantine them.
	ClassPoisoned
	// ClassFlapping hosts refuse their first FlapDownFirst requests, then
	// recover (note: flap state is a per-host counter, so multi-worker
	// schedules can shift WHICH request sees the recovery; the determinism
	// test therefore runs flap-free profiles or a single worker).
	ClassFlapping
)

func (c Class) String() string {
	switch c {
	case ClassFlaky:
		return "flaky"
	case ClassSlow:
		return "slow"
	case ClassPoisoned:
		return "poisoned"
	case ClassFlapping:
		return "flapping"
	default:
		return "healthy"
	}
}

// Profile is the fault mix. Fractions are of the host population and are
// carved in the fixed order poisoned, slow, flaky, flapping from one
// uniform hash, so enlarging one fraction never reshuffles hosts between
// the others.
type Profile struct {
	Name string
	// Host-population fractions, each in [0,1].
	PoisonFrac float64
	SlowFrac   float64
	FlakyFrac  float64
	FlapFrac   float64
	// FlakyFailProb is the per-request fault probability on flaky hosts
	// (default 0.4).
	FlakyFailProb float64
	// SlowDelay is the base slow-drip delay; the actual delay is 1–3x this,
	// hash-derived (default 2ms — the synthetic web runs at test speed).
	SlowDelay time.Duration
	// SlowStallProb is the per-request probability that a slow host stalls
	// until the attempt deadline instead of dripping (default 0.05).
	SlowStallProb float64
	// FlapDownFirst is how many requests a flapping host refuses before it
	// recovers (default 3).
	FlapDownFirst int
	// DNSTimeoutFrac is the fraction of hostnames whose lookups hang on the
	// PRIMARY name server (exercising retry-against-secondary).
	DNSTimeoutFrac float64
	// Exempt hosts are always healthy regardless of hash (seed URLs).
	Exempt []string
}

func (p *Profile) fill() {
	if p.FlakyFailProb <= 0 {
		p.FlakyFailProb = 0.4
	}
	if p.SlowDelay <= 0 {
		p.SlowDelay = 2 * time.Millisecond
	}
	if p.SlowStallProb <= 0 {
		p.SlowStallProb = 0.05
	}
	if p.FlapDownFirst <= 0 {
		p.FlapDownFirst = 3
	}
}

// ByName returns a named profile:
//
//	off     – no faults (the plane becomes a transparent pass-through)
//	default – the acceptance mix: 10% flaky, 5% slow-drip, 2% poisoned,
//	          plus 5% of hostnames timing out on the primary DNS server
//	flaky   – 30% flaky hosts only
//	slow    – 20% slow-drip hosts only
//	poison  – 10% poisoned hosts only
//	flap    – 20% flapping hosts only
func ByName(name string) (Profile, error) {
	switch name {
	case "", "off":
		return Profile{Name: "off"}, nil
	case "default":
		return Profile{Name: "default", FlakyFrac: 0.10, SlowFrac: 0.05,
			PoisonFrac: 0.02, DNSTimeoutFrac: 0.05}, nil
	case "flaky":
		return Profile{Name: "flaky", FlakyFrac: 0.30}, nil
	case "slow":
		return Profile{Name: "slow", SlowFrac: 0.20}, nil
	case "poison":
		return Profile{Name: "poison", PoisonFrac: 0.10}, nil
	case "flap":
		return Profile{Name: "flap", FlapFrac: 0.20}, nil
	default:
		return Profile{}, fmt.Errorf("faults: unknown profile %q (want off|default|flaky|slow|poison|flap)", name)
	}
}

// NewByName builds the plane for a named profile (see ByName) and seed.
// "off" and "" return a nil plane: the crawl runs without one.
func NewByName(name string, seed int64) (*Plane, error) {
	prof, err := ByName(name)
	if err != nil || prof.Name == "off" {
		return nil, err
	}
	return New(seed, prof), nil
}

// Kind labels one injected fault occurrence.
type Kind string

// Fault kinds.
const (
	KindRefused    Kind = "refused"
	KindStall      Kind = "stall"
	KindHTTP500    Kind = "http-500"
	KindHTTP429    Kind = "http-429"
	KindTruncate   Kind = "truncate"
	KindCorrupt    Kind = "corrupt-gzip"
	KindRedirLoop  Kind = "redirect-loop"
	KindSlowDrip   Kind = "slow-drip"
	KindDNSTimeout Kind = "dns-timeout"
)

// Plane injects faults. One Plane wraps one crawl's transport and DNS
// servers; it is safe for concurrent use.
type Plane struct {
	seed    uint64
	profile Profile

	mu       sync.Mutex
	urlIdx   map[string]int // per-URL request counter (attempt index)
	hostReqs map[string]int // per-host request counter (flap recovery)
	seen     map[string]Class
	injected map[Kind]int64
}

// New builds a plane for one seed and profile.
func New(seed int64, profile Profile) *Plane {
	profile.fill()
	return &Plane{
		seed:     splitmix64(uint64(seed)),
		profile:  profile,
		urlIdx:   make(map[string]int),
		hostReqs: make(map[string]int),
		seen:     make(map[string]Class),
		injected: make(map[Kind]int64),
	}
}

// Seedless hash plumbing: FNV-1a over the tag+key, finalized with
// SplitMix64 and mixed with the plane seed and a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *Plane) bits(tag, key string, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return splitmix64(h.Sum64() ^ p.seed ^ splitmix64(uint64(n)))
}

// unit maps (tag, key, n) to a deterministic uniform float in [0,1).
func (p *Plane) unit(tag, key string, n int) float64 {
	return float64(p.bits(tag, key, n)>>11) / float64(1<<53)
}

// Class returns host's assigned class under this plane's seed and profile.
func (p *Plane) Class(host string) Class {
	for _, ex := range p.profile.Exempt {
		if host == ex {
			return ClassHealthy
		}
	}
	u := p.unit("host-class", host, 0)
	cut := p.profile.PoisonFrac
	if u < cut {
		return ClassPoisoned
	}
	cut += p.profile.SlowFrac
	if u < cut {
		return ClassSlow
	}
	cut += p.profile.FlakyFrac
	if u < cut {
		return ClassFlaky
	}
	cut += p.profile.FlapFrac
	if u < cut {
		return ClassFlapping
	}
	return ClassHealthy
}

// Classify buckets hosts by class — the chaos suite uses it to compute the
// expected quarantine list up front.
func (p *Plane) Classify(hosts []string) map[Class][]string {
	out := make(map[Class][]string)
	for _, h := range hosts {
		c := p.Class(h)
		out[c] = append(out[c], h)
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

// SeenHosts lists every host observed through the wrapped transport, with
// its class, sorted by host.
func (p *Plane) SeenHosts() map[string]Class {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]Class, len(p.seen))
	for h, c := range p.seen {
		out[h] = c
	}
	return out
}

// PoisonedSeen lists the poisoned hosts the crawl actually touched — the
// exact set the crawl is expected to quarantine.
func (p *Plane) PoisonedSeen() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for h, c := range p.seen {
		if c == ClassPoisoned {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// PoisonKind returns the stable fault kind a host would exhibit if (and
// only if) it is poisoned under this plane — the same hash the transport
// uses. Chaos tests and reports use it to predict a poisoned host's
// failure mode.
func (p *Plane) PoisonKind(host string) Kind {
	switch p.bits("poison-kind", host, 0) % 5 {
	case 0:
		return KindCorrupt
	case 1:
		return KindRedirLoop
	case 2:
		return KindRefused
	case 3:
		return KindHTTP500
	default:
		return KindTruncate
	}
}

// Injected returns per-kind injection counts.
func (p *Plane) Injected() map[Kind]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Kind]int64, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

func (p *Plane) record(kind Kind) {
	p.mu.Lock()
	p.injected[kind]++
	p.mu.Unlock()
	mInjected.Inc()
	switch kind {
	case KindRefused:
		mRefused.Inc()
	case KindStall:
		mStalls.Inc()
	case KindHTTP500:
		mHTTP500.Inc()
	case KindHTTP429:
		mHTTP429.Inc()
	case KindTruncate:
		mTruncated.Inc()
	case KindCorrupt:
		mCorrupt.Inc()
	case KindRedirLoop:
		mRedirLoop.Inc()
	case KindSlowDrip:
		mSlowDrips.Inc()
	case KindDNSTimeout:
		mDNSTimeouts.Inc()
	}
}

// next returns the per-URL request index (0-based) and notes the host. The
// index is what makes retries see a fresh fault decision: the first request
// for a URL may be refused while its retry passes, deterministically.
func (p *Plane) next(host, url string, class Class) (urlIdx, hostIdx int) {
	p.mu.Lock()
	urlIdx = p.urlIdx[url]
	p.urlIdx[url] = urlIdx + 1
	hostIdx = p.hostReqs[host]
	p.hostReqs[host] = hostIdx + 1
	p.seen[host] = class
	p.mu.Unlock()
	return urlIdx, hostIdx
}

// Wrap splices the plane between the fetcher and next (typically the
// synthetic world's in-process transport).
func (p *Plane) Wrap(next http.RoundTripper) http.RoundTripper {
	return &faultTransport{plane: p, next: next}
}

type faultTransport struct {
	plane *Plane
	next  http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.plane
	host := req.URL.Hostname()
	class := p.Class(host)
	if class == ClassHealthy {
		return t.next.RoundTrip(req)
	}
	url := req.URL.String()
	urlIdx, hostIdx := p.next(host, url, class)

	switch class {
	case ClassFlaky:
		if p.unit("flaky", url, urlIdx) < p.profile.FlakyFailProb {
			// Pick one transient kind from independent hash bits.
			switch p.bits("flaky-kind", url, urlIdx) % 4 {
			case 0:
				return t.refuse(req)
			case 1:
				return t.stall(req)
			case 2:
				return t.status(req, 500)
			default:
				return t.status(req, 429)
			}
		}
		return t.next.RoundTrip(req)

	case ClassSlow:
		if p.unit("slow-stall", url, urlIdx) < p.profile.SlowStallProb {
			return t.stall(req)
		}
		// Drip: 1–3x the base delay, deterministic per request.
		mult := 1 + 2*p.unit("slow-delay", url, urlIdx)
		delay := time.Duration(float64(p.profile.SlowDelay) * mult)
		p.record(KindSlowDrip)
		mDripNanos.Observe(delay.Nanoseconds())
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.next.RoundTrip(req)

	case ClassFlapping:
		if hostIdx < p.profile.FlapDownFirst {
			return t.refuse(req)
		}
		return t.next.RoundTrip(req)

	default: // poisoned: the fault kind is stable per host
		switch p.bits("poison-kind", host, 0) % 5 {
		case 0:
			return t.corruptGzip(req)
		case 1:
			return t.redirectLoop(req)
		case 2:
			return t.refuse(req)
		case 3:
			return t.status(req, 500)
		default:
			return t.truncate(req)
		}
	}
}

// errRefused is returned for the connection-refused fault; http.Client
// wraps it in a *url.Error, which the fetch layer classifies as a transient
// transport error.
var errRefused = errors.New("faults: connect: connection refused")

func (t *faultTransport) refuse(req *http.Request) (*http.Response, error) {
	t.plane.record(KindRefused)
	return nil, errRefused
}

// stall blocks until the request's context gives up — a dial/read timeout
// from the fetcher's point of view.
func (t *faultTransport) stall(req *http.Request) (*http.Response, error) {
	t.plane.record(KindStall)
	<-req.Context().Done()
	return nil, req.Context().Err()
}

func (t *faultTransport) status(req *http.Request, code int) (*http.Response, error) {
	kind := KindHTTP500
	h := http.Header{}
	h.Set("Content-Type", "text/plain")
	if code == 429 {
		kind = KindHTTP429
		h.Set("Retry-After", "1")
	}
	t.plane.record(kind)
	body := []byte(http.StatusText(code))
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// corruptGzip serves bytes that claim to be gzip but are not.
func (t *faultTransport) corruptGzip(req *http.Request) (*http.Response, error) {
	t.plane.record(KindCorrupt)
	body := []byte("\x1f\x8bthis is not a deflate stream, it only plays one on tv")
	h := http.Header{}
	h.Set("Content-Type", "text/html")
	h.Set("Content-Encoding", "gzip")
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// redirectLoop bounces between the URL and the URL plus a marker query,
// which the fetcher's chain tracking cuts as a loop.
func (t *faultTransport) redirectLoop(req *http.Request) (*http.Response, error) {
	t.plane.record(KindRedirLoop)
	loc := *req.URL
	if strings.Contains(loc.RawQuery, "chaosloop=1") {
		loc.RawQuery = strings.ReplaceAll(loc.RawQuery, "chaosloop=1", "")
		loc.RawQuery = strings.Trim(loc.RawQuery, "&")
	} else if loc.RawQuery == "" {
		loc.RawQuery = "chaosloop=1"
	} else {
		loc.RawQuery += "&chaosloop=1"
	}
	h := http.Header{}
	h.Set("Location", loc.String())
	return &http.Response{
		Status:     "302 Found",
		StatusCode: http.StatusFound,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader(nil)),
		Request:    req,
	}, nil
}

// errPeerReset is the mid-body error surfaced by truncate.
var errPeerReset = errors.New("faults: connection reset mid-body")

// truncate passes the request through but cuts the body at half length,
// surfacing a read error — the degradable fault.
func (t *faultTransport) truncate(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	t.plane.record(KindTruncate)
	full, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	cut := len(full) / 2
	resp.Body = io.NopCloser(&truncReader{r: bytes.NewReader(full[:cut])})
	resp.ContentLength = int64(len(full)) // declared length stays the lie
	return resp, nil
}

// truncReader converts EOF into a peer-reset error so the fetcher sees a
// broken read, not a clean short body.
type truncReader struct{ r io.Reader }

func (t *truncReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		return n, errPeerReset
	}
	return n, err
}

// WrapDNS wraps one name server. Only the primary (index 0) is faulted:
// lookups for a deterministic DNSTimeoutFrac of hostnames hang until the
// attempt deadline, forcing the resolver's retry-against-secondary path.
func (p *Plane) WrapDNS(index int, s dns.Server) dns.Server {
	if index != 0 || p.profile.DNSTimeoutFrac <= 0 {
		return s
	}
	return dns.ServerFunc(func(ctx context.Context, host string) (dns.Record, error) {
		if p.unit("dns-timeout", host, 0) < p.profile.DNSTimeoutFrac {
			p.record(KindDNSTimeout)
			<-ctx.Done()
			return dns.Record{}, ctx.Err()
		}
		return s.Lookup(ctx, host)
	})
}
