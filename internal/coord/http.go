package coord

// This file is the coordinator's public face: a /search handler accepting
// exactly the same parameter surface as the single-process API (it reuses
// serve.ParseQuery) and answering in the same JSON shape, extended with
// the degradation fields a distributed answer needs. A degraded answer is
// still HTTP 200 — the hits are correct for the reachable partitions —
// with "degraded": true and the missing shard addresses listed; only a
// fleet with no reachable shard at all earns a 503.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/serve"
)

// API is the coordinator's HTTP surface: /search, /healthz, /readyz.
// Create with NewAPI, mount with Handler.
type API struct {
	daemon.Gate
	coord *Coordinator
	mux   *http.ServeMux
}

// NewAPI builds the HTTP surface over c. The API starts not-ready.
func NewAPI(c *Coordinator) *API {
	a := &API{coord: c}
	a.mux = http.NewServeMux()
	a.mux.HandleFunc("/search", a.HandleSearch)
	a.MountHealth(a.mux)
	return a
}

// Handler returns the API's mux.
func (a *API) Handler() http.Handler { return a.mux }

// searchResponse is the coordinator's /search answer: the single-process
// response shape plus the distributed provenance and degradation fields.
type searchResponse struct {
	// Query, K, TookNanos, and Hits mirror the single-process response.
	Query     string          `json:"query"`
	K         int             `json:"k"`
	TookNanos int64           `json:"took_ns"`
	Hits      []serve.HitJSON `json:"hits"`
	// Version is the global-stats version the answer was computed under.
	Version string `json:"version"`
	// Degraded is true when at least one shard did not contribute.
	Degraded bool `json:"degraded"`
	// MissingShards lists the base addresses of non-contributing shards.
	MissingShards []string `json:"missing_shards,omitempty"`
}

// HandleSearch answers GET /search by scatter-gathering over the fleet.
func (a *API) HandleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q, msg, ok := serve.ParseQuery(r, a.coord.opt.MaxK)
	if !ok {
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	start := time.Now()
	res, err := a.coord.Search(r.Context(), q)
	if err != nil {
		if errors.Is(err, ErrAllShardsDown) {
			http.Error(w, "no shard server reachable", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Shards answer only the queried tenant's documents, so every hit
	// carries q.Tenant.
	hits := make([]serve.HitJSON, len(res.Hits))
	for i, h := range res.Hits {
		hits[i] = serve.HitJSON{
			URL:        h.URL,
			Title:      h.Title,
			Topic:      h.Topic,
			Tenant:     q.Tenant,
			Score:      h.Score,
			Cosine:     h.Cosine,
			Confidence: h.Confidence,
			Authority:  h.Authority,
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(searchResponse{
		Query:         q.Text,
		K:             q.Limit,
		TookNanos:     time.Since(start).Nanoseconds(),
		Hits:          hits,
		Version:       res.Version,
		Degraded:      res.Degraded,
		MissingShards: res.Missing,
	})
}
