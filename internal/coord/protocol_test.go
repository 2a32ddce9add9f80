package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
)

// The query protocol from the outside: one RPC per shard per query, a
// shard that predates /rpc/v1/search degrading the answer instead of
// failing it, the retained two-phase Score/Gather still agreeing with the
// single process, and a partial authority round being reported.

// startFleetWith is startFleet with each server's handler wrapped.
func startFleetWith(t *testing.T, stores []*store.Store, wrap func(i int, h http.Handler) http.Handler) *distFleet {
	t.Helper()
	f := &distFleet{}
	addrs := make([]string, len(stores))
	for i, st := range stores {
		srv := rpc.NewServer(st)
		srv.SetReady(true)
		hs := httptest.NewServer(wrap(i, srv.Handler()))
		f.servers = append(f.servers, hs)
		f.rpcSrvs = append(f.rpcSrvs, srv)
		addrs[i] = hs.URL
	}
	c, err := New(addrs, Options{HedgeAfter: -1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = c
	return f
}

// refuse answers path with status on server i and passes everything else.
func refuse(server int, path string, status int) func(int, http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		if i != server {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == path {
				http.Error(w, "refused", status)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestOneRPCPerShardPerQuery: a query, cosine-only or authority-weighted,
// costs exactly one client RPC per shard.
func TestOneRPCPerShardPerQuery(t *testing.T) {
	_, fleets := buildDistCorpus(5, 300, []int{3})
	f := startFleet(t, fleets[3])
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.SyncAuth(ctx); err != nil {
		t.Fatal(err)
	}
	requests := metrics.NewCounter("rpc_client_requests_total")
	for _, q := range distQueries() {
		before := requests.Value()
		res, err := f.coord.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%+v: no hits — weak test", q)
		}
		if got := requests.Value() - before; got != 3 {
			t.Fatalf("%+v: %d RPCs for one query over 3 shards, want 3", q, got)
		}
	}
}

// TestShardWithoutSearchEndpointIsMissing is the rolling-upgrade case of a
// new coordinator in front of an old shard: the 404 on /rpc/v1/search
// degrades the answer — 200, the old shard listed missing — never a 5xx.
func TestShardWithoutSearchEndpointIsMissing(t *testing.T) {
	_, fleets := buildDistCorpus(3, 200, []int{2})
	f := startFleetWith(t, fleets[2], refuse(1, rpc.PathSearch, http.StatusNotFound))
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	api := NewAPI(f.coord)
	w := httptest.NewRecorder()
	api.HandleSearch(w, httptest.NewRequest(http.MethodGet, "/search?q=recovery+transaction", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body)
	}
	var resp struct {
		Degraded      bool            `json:"degraded"`
		MissingShards []string        `json:"missing_shards"`
		Hits          []serve.HitJSON `json:"hits"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.MissingShards) != 1 || resp.MissingShards[0] != f.servers[1].URL {
		t.Fatalf("degraded=%v missing=%v, want the old shard %s missing", resp.Degraded, resp.MissingShards, f.servers[1].URL)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits from the upgraded shard")
	}
	for _, h := range resp.Hits {
		if store.RouteURL(h.URL, 2) != 0 {
			t.Fatalf("hit %q belongs to the old shard", h.URL)
		}
	}
}

// TestOtherGenerationShardIsMissing is the mixed-version fleet: a shard
// that answers every call with 200 but names protocol version 1 looks
// healthy on the wire. The coordinator must not sync it — its stats pull
// fails with a *rpc.ProtoError — and every answer is degraded with that
// shard missing, its documents absent.
func TestOtherGenerationShardIsMissing(t *testing.T) {
	_, fleets := buildDistCorpus(3, 200, []int{2})
	f := startFleetWith(t, fleets[2], func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"v":2`), []byte(`"v":1`), 1))
		})
	})
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := f.coord.Clients()[1].Ping(ctx); err == nil {
		t.Fatal("ping of the version-1 shard succeeded")
	}
	res, err := f.coord.Search(ctx, search.Query{Text: "recovery transaction"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Missing) != 1 || res.Missing[0] != f.servers[1].URL {
		t.Fatalf("degraded=%v missing=%v, want the version-1 shard %s missing", res.Degraded, res.Missing, f.servers[1].URL)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from the current shard")
	}
	for _, h := range res.Hits {
		if store.RouteURL(h.URL, 2) != 0 {
			t.Fatalf("hit %q comes from the version-1 shard", h.URL)
		}
	}
}

// TestTwoPhaseReplayStillBitIdentical guards the benchmark's traced
// replay, the last caller of Client.Score and Client.Gather: against the
// current server, score, reduce, gather and merge still reproduce the
// single process bit for bit.
func TestTwoPhaseReplayStillBitIdentical(t *testing.T) {
	single, fleets := buildDistCorpus(7, 400, []int{2})
	base := search.New(single)
	f := startFleet(t, fleets[2])
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.SyncAuth(ctx); err != nil {
		t.Fatal(err)
	}
	version := f.coord.Version()
	for qi, q := range distQueries() {
		plan, ok := search.NewPlanner().Plan(q, f.coord.idf)
		if !ok {
			t.Fatalf("query %d planned empty", qi)
		}
		var maxCos, maxConf, maxAuth float64
		for _, cl := range f.coord.Clients() {
			st, err := cl.Score(ctx, version, plan)
			if err != nil {
				t.Fatal(err)
			}
			maxCos, maxConf, maxAuth = max(maxCos, st.MaxCos), max(maxConf, st.MaxConf), max(maxAuth, st.MaxAuth)
		}
		var merged []serve.HitJSON
		for _, cl := range f.coord.Clients() {
			hits, err := cl.Gather(ctx, version, plan, maxCos, maxConf, maxAuth)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				merged = append(merged, serve.HitJSON{URL: h.URL, Title: h.Title, Topic: h.Topic,
					Score: h.Score, Cosine: h.Cosine, Confidence: h.Confidence, Authority: h.Authority})
			}
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].Score != merged[b].Score {
				return merged[a].Score > merged[b].Score
			}
			return merged[a].URL < merged[b].URL
		})
		if len(merged) > plan.Limit {
			merged = merged[:plan.Limit]
		}
		sameAsLocal(t, "two-phase query "+q.Text, base.Search(q), merged)
	}
}

// TestPartialAuthorityIsDegraded fails one shard's /rpc/v1/links: the
// authority round still installs, counts in coord_auth_partial_total, and
// every authority-weighted answer under it is degraded with that shard
// missing. A cosine-only answer uses no authority and stays whole. The
// prober leaves the round alone while that shard is not ready; once it is
// and its links answer again, the prober reruns the round under the same
// version and the answer becomes whole and bit-identical to one process.
func TestPartialAuthorityIsDegraded(t *testing.T) {
	single, fleets := buildDistCorpus(9, 200, []int{2})
	var refuseLinks atomic.Bool
	refuseLinks.Store(true)
	f := startFleetWith(t, fleets[2], func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && r.URL.Path == rpc.PathLinks && refuseLinks.Load() {
				http.Error(w, "refused", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	version := f.coord.Version()
	partial := metrics.NewCounter("coord_auth_partial_total")
	before := partial.Value()
	authQ := search.Query{Text: "transaction log", Weights: search.Weights{Cosine: 0.5, Authority: 0.5}}
	for i := 0; i < 2; i++ {
		res, err := f.coord.Search(ctx, authQ)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || len(res.Missing) != 1 || res.Missing[0] != f.servers[1].URL {
			t.Fatalf("answer %d: degraded=%v missing=%v, want %s missing", i, res.Degraded, res.Missing, f.servers[1].URL)
		}
	}
	if got := partial.Value() - before; got != 1 {
		t.Fatalf("coord_auth_partial_total rose by %d, want 1 (one round, two answers)", got)
	}
	res, err := f.coord.Search(ctx, search.Query{Text: "transaction log"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("cosine-only answer degraded (missing %v)", res.Missing)
	}

	f.rpcSrvs[1].SetReady(false)
	f.coord.opt.ProbeInterval = 10 * time.Millisecond
	f.coord.StartProber()
	defer f.coord.StopProber()
	time.Sleep(200 * time.Millisecond)
	if got := partial.Value() - before; got != 1 {
		t.Fatalf("coord_auth_partial_total rose by %d while the shard was not ready, want 1 (no retry)", got)
	}
	f.rpcSrvs[1].SetReady(true)
	refuseLinks.Store(false)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if res, err = f.coord.Search(ctx, authQ); err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still degraded (missing %v) 10 s after the links came back", res.Missing)
		}
	}
	if res.Version != version {
		t.Fatalf("answered under version %s, want the unchanged %s", res.Version, version)
	}
	sameAsLocal(t, "authority after the retried round", search.New(single).Search(authQ), res.Hits)
}

// TestBoundMissAsksAgain: shards whose stats understate their largest
// confidence make the coordinator's confidence bound wrong. The merge
// sees the reduced maximum exceed it, the coordinator asks every shard
// again without bounds — two RPCs per shard, counted in
// coord_bound_misses_total — and the answer is still bit-identical to one
// process.
func TestBoundMissAsksAgain(t *testing.T) {
	single, fleets := buildDistCorpus(11, 300, []int{2})
	f := startFleetWith(t, fleets[2], func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != rpc.PathStats {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var resp rpc.StatsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
			}
			resp.Stats.MaxConf /= 2
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(resp)
		})
	})
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	misses := metrics.NewCounter("coord_bound_misses_total")
	requests := metrics.NewCounter("rpc_client_requests_total")
	q := search.Query{Text: "recovery", Weights: search.Weights{Cosine: 0.5, Confidence: 0.5}}
	m0, r0 := misses.Value(), requests.Value()
	res, err := f.coord.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("coord_bound_misses_total rose by %d, want 1", got)
	}
	if got := requests.Value() - r0; got != 4 {
		t.Fatalf("%d RPCs, want 4: two per shard", got)
	}
	if res.Degraded {
		t.Fatalf("degraded (missing %v)", res.Missing)
	}
	sameAsLocal(t, "after a bound miss", search.New(single).Search(q), res.Hits)
}
