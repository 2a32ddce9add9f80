// Package serve implements the machine-facing query API both portald
// deployments answer /search with — the production serving path in front
// of the search engine's immutable snapshots (the paper's §4.2
// expert-search front end, grown into a service):
//
//	GET /search?q=...&k=...   ranked results as JSON (scores, topics, timing)
//	GET /healthz              process liveness (always 200 while serving)
//	GET /readyz               readiness: 200 when traffic is wanted, 503
//	                          during startup and drain (rolling restarts)
//
// Requests pass the admission gate first (429 + Retry-After beyond the
// bounded in-flight set and wait queue), then the provenance-keyed result
// cache; only a miss reaches the Searcher — a single-process engine over
// its store, or the distributed coordinator — and concurrent identical
// misses are collapsed into one pass. Cached entries hold the marshaled
// hits array, so a hit writes preserialized bytes — bit-identical to what
// the uncached path would produce, because both come from the same
// marshaling of the same deterministic scoring.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// Every request that reaches the handler ends in exactly one of ok,
// badrequest, shed or errors (each 5xx it writes), so requests is their
// sum.
var (
	mRequests  = metrics.NewCounter("serve_search_requests_total")
	mOK        = metrics.NewCounter("serve_search_ok_total")
	mBad       = metrics.NewCounter("serve_search_badrequest_total")
	mShed429   = metrics.NewCounter("serve_search_shed_total")
	mErrors    = metrics.NewCounter("serve_search_errors_total")
	mLatNanos  = metrics.NewHistogram("serve_search_nanos")
	mHitNanos  = metrics.NewHistogram("serve_search_hit_nanos")
	mMissNanos = metrics.NewHistogram("serve_search_miss_nanos")
)

// ErrUnavailable marks a Searcher error no retry of the request can mend
// right now (no shard server reachable): the handler answers 503.
var ErrUnavailable = errors.New("serve: searcher unavailable")

// Provenance names the state an answer was computed from — a store's
// per-shard epoch vector or a coordinator's global-stats version — and is
// what the result cache keys on.
type Provenance struct {
	Epochs  []int64 `json:"epochs,omitempty"`
	Version string  `json:"version,omitempty"`
}

// Answer is one computed answer.
type Answer struct {
	// Hits is the ranked result list, never nil.
	Hits []HitJSON
	// Provenance is the state the hits were computed from; a zero one
	// (an unplannable query) answers the same for every state.
	Provenance
	// Degraded is true when some partition did not contribute: the hits
	// are correct for the reachable ones but may miss documents.
	Degraded bool
	// Missing lists the base addresses of the partitions that did not.
	Missing []string
}

// Searcher is what an API answers through: the single-process engine over
// its store (New) or the distributed coordinator.
type Searcher interface {
	// Provenance reports the state the next answer would be computed
	// from; an answer computed under it never changes.
	Provenance() Provenance
	// Search answers q. An error wrapping ErrUnavailable is a 503 and
	// search.ErrBadWeights a 400; any other is a 500.
	Search(ctx context.Context, q search.Query) (*Answer, error)
}

// Options configures an API.
type Options struct {
	// Cache is the query-result cache; nil serves every request from the
	// Searcher.
	Cache *servecache.Cache
	// Admission is the admission gate; nil admits everything.
	Admission *admit.Controller
	// MaxK caps the k parameter (default 100).
	MaxK int
}

// API is the serving surface. Create with New or NewFor, mount with
// Handler, and flip readiness with SetReady around startup and drain.
type API struct {
	daemon.Gate
	searcher Searcher
	cache    *servecache.Cache
	admit    *admit.Controller
	maxK     int
	mux      *http.ServeMux
}

// New builds an API over st served by engine (share the engine with other
// frontends so they reuse one snapshot set). The API starts not-ready.
func New(st *store.Store, engine *search.Engine, opts Options) *API {
	return NewFor(engineSearcher{st, engine}, opts)
}

// NewFor builds an API answering through s. The API starts not-ready.
func NewFor(s Searcher, opts Options) *API {
	if opts.MaxK <= 0 {
		opts.MaxK = 100
	}
	a := &API{
		searcher: s,
		cache:    opts.Cache,
		admit:    opts.Admission,
		maxK:     opts.MaxK,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", a.HandleSearch)
	a.MountHealth(mux)
	a.mux = mux
	return a
}

// Handler returns the API's mux.
func (a *API) Handler() http.Handler { return a.mux }

// engineSearcher is the single-process Searcher: the engine over its store.
type engineSearcher struct {
	st     *store.Store
	engine *search.Engine
}

// Provenance is the store's epoch vector now.
func (s engineSearcher) Provenance() Provenance {
	return Provenance{Epochs: s.st.ShardEpochs()}
}

// Search runs q on the engine; it never fails.
func (s engineSearcher) Search(_ context.Context, q search.Query) (*Answer, error) {
	hits, epochs := s.engine.SearchWithEpochs(q)
	out := make([]HitJSON, len(hits))
	for i, h := range hits {
		out[i] = HitJSON{
			URL:        h.Doc.URL,
			Title:      h.Doc.Title,
			Topic:      h.Doc.Topic,
			Tenant:     h.Doc.Tenant,
			Score:      h.Score,
			Cosine:     h.Cosine,
			Confidence: h.Confidence,
			Authority:  h.Authority,
		}
	}
	return &Answer{Hits: out, Provenance: Provenance{Epochs: epochs}}, nil
}

// searchResponse is the JSON shape of one answered query, the same for
// both deployments: a single-process answer carries epochs and a sharded
// one version.
type searchResponse struct {
	Query  string `json:"query"`
	K      int    `json:"k"`
	Cached bool   `json:"cached"`
	// TookNanos is the server-side time from admission to response
	// assembly for this request (a cache hit reports the hit cost, not the
	// original scoring cost).
	TookNanos int64 `json:"took_ns"`
	Provenance
	Degraded      bool     `json:"degraded"`
	MissingShards []string `json:"missing_shards,omitempty"`
	// Hits is the []HitJSON of a fresh answer or the json.RawMessage a
	// cache entry holds; both encode to the same bytes.
	Hits any `json:"hits"`
}

// HitJSON is the JSON shape of one ranked result. Tenant is omitted for
// the default tenant, so single-portal responses are byte-identical to the
// pre-tenancy wire format.
type HitJSON struct {
	URL        string  `json:"url"`
	Title      string  `json:"title"`
	Topic      string  `json:"topic"`
	Tenant     string  `json:"tenant,omitempty"`
	Score      float64 `json:"score"`
	Cosine     float64 `json:"cosine"`
	Confidence float64 `json:"confidence"`
	Authority  float64 `json:"authority"`
}

// ParseQuery resolves /search request parameters (q, k, topic, exact,
// tenant, wcos/wconf/wauth) into a canonical search.Query with defaults
// applied and k capped at maxK: the one parser of outside /search input,
// whichever Searcher answers. msg is the 400 body when ok is false. An
// absent tenant parameter targets the default tenant — the only tenant a
// pre-tenancy deployment has — so existing clients are unaffected.
func ParseQuery(r *http.Request, maxK int) (search.Query, string, bool) {
	return parseQuery(r.URL.Query(), maxK)
}

// parseQuery is ParseQuery over already parsed parameters.
func parseQuery(params url.Values, maxK int) (search.Query, string, bool) {
	if maxK <= 0 {
		maxK = 100
	}
	text := params.Get("q")
	if text == "" {
		return search.Query{}, "missing q parameter", false
	}
	tenant := params.Get("tenant")
	if tenant != "" && len(tenant) > 64 {
		return search.Query{}, "tenant must be at most 64 characters", false
	}
	k := min(10, maxK)
	if raw := params.Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return search.Query{}, "k must be a positive integer", false
		}
		if n > maxK {
			n = maxK
		}
		k = n
	}
	q := search.Query{
		Text:   text,
		Topic:  params.Get("topic"),
		Tenant: tenant,
		Exact:  params.Get("exact") == "1" || params.Get("exact") == "true",
		Limit:  k,
	}
	w := search.Weights{}
	for _, f := range [...]struct {
		name string
		dst  *float64
	}{{"wcos", &w.Cosine}, {"wconf", &w.Confidence}, {"wauth", &w.Authority}} {
		if raw := params.Get(f.name); raw != "" {
			// ParseFloat accepts "NaN" and "Inf"; !(v >= 0) catches NaN.
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil || !(v >= 0) || math.IsInf(v, 1) {
				return search.Query{}, f.name + " must be a non-negative number", false
			}
			*f.dst = v
		}
	}
	if w == (search.Weights{}) {
		w = search.DefaultWeights()
	}
	q.Weights = w
	return q, "", true
}

// keyFor builds the cache key for q under provenance p. A coordinator's
// version leads a key whose epoch vector is empty.
func keyFor(p Provenance, q search.Query) string {
	return p.Version + servecache.Key(p.Epochs, servecache.KeyParams{
		Text:   servecache.NormalizeText(q.Text),
		Topic:  q.Topic,
		Tenant: q.Tenant,
		Exact:  q.Exact,
		CosW:   q.Weights.Cosine,
		ConfW:  q.Weights.Confidence,
		AuthW:  q.Weights.Authority,
		K:      q.Limit,
	})
}

// HandleSearch answers GET /search with JSON, behind the admission gate
// (see Admitted). Exported so frontends can mount it directly.
func (a *API) HandleSearch(w http.ResponseWriter, r *http.Request) {
	a.admitted(w, r, a.search)
}

// Admitted returns h behind HandleSearch's admission gate and request
// accounting, for a frontend that answers some /search requests itself
// (portald's HTML page): 429 + Retry-After when shed, and each request
// booked by its status in requests = ok + badrequest + shed + errors.
func (a *API) Admitted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.admitted(w, r, func(w http.ResponseWriter, r *http.Request, _ url.Values) int {
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h.ServeHTTP(sw, r)
			return sw.code
		})
	})
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records code and passes it on.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// admitted counts a GET or HEAD request, per tenant too, and passes it
// through the admission gate — answering 429 + Retry-After when shed, 503
// when its client left while queued — to next, whose status it books:
// 5xx as errors, another 4xx as badrequest, else ok.
func (a *API) admitted(w http.ResponseWriter, r *http.Request, next func(http.ResponseWriter, *http.Request, url.Values) int) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	mRequests.Inc()
	// The tenant identity must be known before admission so per-tenant
	// quotas can shed a hot portal's traffic without touching the others;
	// full parameter validation still happens after the gate.
	params := r.URL.Query()
	tenant := params.Get("tenant")
	metrics.TenantCounter("serve_search_requests_total", tenant).Inc()
	if a.admit != nil {
		release, err := a.admit.AcquireTenant(r.Context(), tenant)
		if err != nil {
			var shed *admit.ShedError
			if errors.As(err, &shed) {
				mShed429.Inc()
				metrics.TenantCounter("serve_search_shed_total", tenant).Inc()
				secs := int(shed.RetryAfter.Round(time.Second) / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				body := "overloaded: " + shed.Reason
				if shed.Tenant != "" {
					body += " (tenant " + shed.Tenant + ")"
				}
				http.Error(w, body, http.StatusTooManyRequests)
				return
			}
			// The client went away while queued; any status works, 503
			// keeps retry semantics honest for proxies that still listen.
			mErrors.Inc()
			http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
			return
		}
		defer release()
	}
	switch code := next(w, r, params); {
	case code >= 500:
		mErrors.Inc()
	case code >= 400:
		mBad.Inc()
	default:
		mOK.Inc()
	}
}

// search answers one admitted JSON /search request and returns its status.
func (a *API) search(w http.ResponseWriter, r *http.Request, params url.Values) int {
	start := time.Now()
	q, msg, ok := parseQuery(params, a.maxK)
	if !ok {
		http.Error(w, msg, http.StatusBadRequest)
		return http.StatusBadRequest
	}
	resp, err := a.answer(r.Context(), q)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, search.ErrBadWeights):
			code = http.StatusBadRequest
		case errors.Is(err, ErrUnavailable):
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return code
	}

	took := time.Since(start)
	mLatNanos.Observe(took.Nanoseconds())
	if resp.Cached {
		mHitNanos.Observe(took.Nanoseconds())
	} else {
		mMissNanos.Observe(took.Nanoseconds())
	}
	resp.Query, resp.K, resp.TookNanos = q.Text, q.Limit, took.Nanoseconds()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(resp)
	return http.StatusOK
}

// answer computes q through the cache, when there is one, and returns the
// response without its echo and timing fields. Without a cache the hits
// are encoded once, straight into the response.
func (a *API) answer(ctx context.Context, q search.Query) (*searchResponse, error) {
	if a.cache == nil {
		ans, err := a.searcher.Search(ctx, q)
		if err != nil {
			return nil, err
		}
		return fresh(ans), nil
	}
	// Collapsed waiters share the computation, so one requester going
	// away must not cancel it.
	ctx = context.WithoutCancel(ctx)
	v, outcome := a.cache.GetOrCompute(keyFor(a.searcher.Provenance(), q), func() (any, string) {
		ans, err := a.searcher.Search(ctx, q)
		if err != nil {
			return err, servecache.DoNotStore
		}
		resp := fresh(ans)
		if ans.Degraded {
			return resp, servecache.DoNotStore
		}
		hits, err := json.Marshal(ans.Hits)
		if err != nil {
			return err, servecache.DoNotStore
		}
		resp.Hits = json.RawMessage(hits)
		if ans.Epochs == nil && ans.Version == "" {
			// An unplannable query: empty for every state, store under
			// the lookup key.
			return resp, ""
		}
		// Store under the provenance actually served. Normally equal to
		// the lookup's; under a stale-snapshot serve or a resync it
		// differs, and the entry must only answer requests that observed
		// that state.
		return resp, keyFor(ans.Provenance, q)
	})
	if err, ok := v.(error); ok {
		return nil, err
	}
	// Every requester fills in its own copy.
	resp := *v.(*searchResponse)
	resp.Cached = outcome != servecache.Miss && !resp.Degraded
	return &resp, nil
}

// fresh is the response for an answer computed for this request.
func fresh(ans *Answer) *searchResponse {
	return &searchResponse{
		Provenance:    ans.Provenance,
		Degraded:      ans.Degraded,
		MissingShards: ans.Missing,
		Hits:          ans.Hits,
	}
}
