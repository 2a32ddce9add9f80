// Package serve implements portald's machine-facing query API — the
// production serving path in front of the search engine's immutable
// snapshots (the paper's §4.2 expert-search front end, grown into a
// service):
//
//	GET /search?q=...&k=...   ranked results as JSON (scores, topics, timing)
//	GET /healthz              process liveness (always 200 while serving)
//	GET /readyz               readiness: 200 when traffic is wanted, 503
//	                          during startup and drain (rolling restarts)
//
// Requests pass the admission gate first (429 + Retry-After beyond the
// bounded in-flight set and wait queue), then the epoch-keyed result
// cache; only a miss reaches the scoring loop, and concurrent identical
// misses are collapsed into one pass. Cached entries hold the marshaled
// hits array, so a hit writes preserialized bytes — bit-identical to what
// the uncached path would produce, because both come from the same
// marshaling of the same deterministic scoring.
package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

var (
	mRequests  = metrics.NewCounter("serve_search_requests_total")
	mOK        = metrics.NewCounter("serve_search_ok_total")
	mBad       = metrics.NewCounter("serve_search_badrequest_total")
	mShed429   = metrics.NewCounter("serve_search_shed_total")
	mLatNanos  = metrics.NewHistogram("serve_search_nanos")
	mHitNanos  = metrics.NewHistogram("serve_search_hit_nanos")
	mMissNanos = metrics.NewHistogram("serve_search_miss_nanos")
)

// Options configures an API.
type Options struct {
	// Cache is the query-result cache; nil serves every request from the
	// scoring loop.
	Cache *servecache.Cache
	// Admission is the admission gate; nil admits everything.
	Admission *admit.Controller
	// MaxK caps the k parameter (default 100).
	MaxK int
}

// API is the serving surface. Create with New, mount with Handler, and
// flip readiness with SetReady around startup and drain.
type API struct {
	daemon.Gate
	store  *store.Store
	engine *search.Engine
	cache  *servecache.Cache
	admit  *admit.Controller
	maxK   int
	mux    *http.ServeMux
}

// New builds an API over st served by engine (share the engine with other
// frontends so they reuse one snapshot set). The API starts not-ready.
func New(st *store.Store, engine *search.Engine, opts Options) *API {
	if opts.MaxK <= 0 {
		opts.MaxK = 100
	}
	a := &API{
		store:  st,
		engine: engine,
		cache:  opts.Cache,
		admit:  opts.Admission,
		maxK:   opts.MaxK,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/search", a.HandleSearch)
	a.MountHealth(mux)
	a.mux = mux
	return a
}

// Handler returns the API's mux.
func (a *API) Handler() http.Handler { return a.mux }

// searchResponse is the JSON shape of one answered query.
type searchResponse struct {
	Query  string `json:"query"`
	K      int    `json:"k"`
	Cached bool   `json:"cached"`
	// TookNanos is the server-side time from admission to response
	// assembly for this request (a cache hit reports the hit cost, not the
	// original scoring cost).
	TookNanos int64 `json:"took_ns"`
	// Epochs is the per-shard store epoch vector the results were computed
	// against.
	Epochs []int64         `json:"epochs"`
	Hits   json.RawMessage `json:"hits"`
}

// HitJSON is the JSON shape of one ranked result, shared by the
// single-process API and the distributed coordinator so both answer a
// query with the same bytes. Tenant is omitted for the default tenant, so
// single-portal responses are byte-identical to the pre-tenancy wire
// format.
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

// cachedResult is one cache value: the preserialized hits array plus the
// epoch vector it was computed against.
type cachedResult struct {
	hits   json.RawMessage
	epochs []int64
}

// marshalHits serializes hits once; the bytes are shared by every response
// served from the cache entry.
func marshalHits(hits []search.Hit) json.RawMessage {
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
	b, err := json.Marshal(out)
	if err != nil {
		// Unreachable: HitJSON has no unmarshalable fields.
		return json.RawMessage("[]")
	}
	return b
}

// ParseQuery resolves /search request parameters (q, k, topic, exact,
// tenant, wcos/wconf/wauth) into a canonical search.Query with defaults
// applied and k capped at maxK. Exported so the distributed coordinator's
// /search handler accepts exactly the same parameter surface as the
// single-process API; msg is the 400 body when ok is false. An absent
// tenant parameter targets the default tenant — the only tenant a
// pre-tenancy deployment has — so existing clients are unaffected.
func ParseQuery(r *http.Request, maxK int) (search.Query, string, bool) {
	if maxK <= 0 {
		maxK = 100
	}
	params := r.URL.Query()
	text := params.Get("q")
	if text == "" {
		return search.Query{}, "missing q parameter", false
	}
	tenant := params.Get("tenant")
	if tenant != "" && len(tenant) > 64 {
		return search.Query{}, "tenant must be at most 64 characters", false
	}
	k := 10
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

// keyFor builds the cache key for q observed at the given epoch vector.
func keyFor(epochs []int64, q search.Query) string {
	return servecache.Key(epochs, servecache.KeyParams{
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

// currentEpochs snapshots the store's per-shard epoch vector.
func (a *API) currentEpochs() []int64 {
	eps := make([]int64, a.store.NumShards())
	for i := range eps {
		eps[i] = a.store.ShardEpoch(i)
	}
	return eps
}

// HandleSearch answers GET /search. Exported so frontends can mount it
// directly (portald routes browser requests for /search to the HTML
// portal and everything else here).
func (a *API) HandleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	mRequests.Inc()
	// The tenant identity must be known before admission so per-tenant
	// quotas can shed a hot portal's traffic without touching the others;
	// full parameter validation still happens after the gate.
	tenant := r.URL.Query().Get("tenant")
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
			http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
			return
		}
		defer release()
	}
	start := time.Now()
	q, msg, ok := ParseQuery(r, a.maxK)
	if !ok {
		mBad.Inc()
		http.Error(w, msg, http.StatusBadRequest)
		return
	}

	var res *cachedResult
	cached := false
	if a.cache != nil {
		lookupKey := keyFor(a.currentEpochs(), q)
		v, outcome := a.cache.GetOrCompute(lookupKey, func() (any, string) {
			hits, epochs := a.engine.SearchWithEpochs(q)
			cr := &cachedResult{hits: marshalHits(hits), epochs: epochs}
			if epochs == nil {
				// Unparseable query: empty for every epoch vector, store
				// under the lookup key.
				return cr, ""
			}
			// Store under the epochs actually served. Normally equal to
			// the lookup vector; under a stale-snapshot serve it differs,
			// and the entry must only answer requests that observed the
			// stale vector.
			return cr, keyFor(epochs, q)
		})
		res = v.(*cachedResult)
		cached = outcome != servecache.Miss
	} else {
		hits, epochs := a.engine.SearchWithEpochs(q)
		res = &cachedResult{hits: marshalHits(hits), epochs: epochs}
	}

	took := time.Since(start)
	mLatNanos.Observe(took.Nanoseconds())
	if cached {
		mHitNanos.Observe(took.Nanoseconds())
	} else {
		mMissNanos.Observe(took.Nanoseconds())
	}
	mOK.Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	_ = enc.Encode(searchResponse{
		Query:     q.Text,
		K:         q.Limit,
		Cached:    cached,
		TookNanos: took.Nanoseconds(),
		Epochs:    res.epochs,
		Hits:      res.hits,
	})
}
