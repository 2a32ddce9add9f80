package search_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/portal"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// The slim-hit contract: a hit is the snapshot row, never the payload, and
// answering a query reads postings from the segment tier and nothing else.

// soloFleet is a one-partition fleet: the partition's own statistics and
// link graph installed as the global view, plus the idf table a coordinator
// would plan against.
type soloFleet struct {
	part *search.Partition
	idf  *vsm.IDFTable
}

const soloVersion = "g1"

func syncSolo(t *testing.T, part *search.Partition) soloFleet {
	t.Helper()
	stats := part.Stats()
	if err := part.SetGlobal(soloVersion, stats.Pin, stats.NumDocs, stats.Terms, stats.DF); err != nil {
		t.Fatal(err)
	}
	var links []store.Link
	part.Store().VisitLinks(func(l store.Link) bool {
		links = append(links, l)
		return true
	})
	var urls []string
	var scores []float64
	for u, a := range search.AuthorityFromLinks(links) {
		urls = append(urls, u)
		scores = append(scores, a)
	}
	if err := part.SetAuth(soloVersion, urls, scores); err != nil {
		t.Fatal(err)
	}
	df := make(map[string]int, len(stats.Terms))
	for i, term := range stats.Terms {
		df[term] = stats.DF[i]
	}
	return soloFleet{part: part, idf: vsm.TableFromDocFreq(df, stats.NumDocs)}
}

// score plans q and runs phase 1.
func (f soloFleet) score(t *testing.T, q search.Query) (*search.Plan, search.ScoreStats) {
	t.Helper()
	plan, ok := search.NewPlanner().Plan(q, f.idf)
	if !ok {
		t.Fatalf("query %q has no indexable stems", q.Text)
	}
	sc, err := f.part.Score(soloVersion, plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, sc
}

// search runs both phases, the way a coordinator over one shard would.
func (f soloFleet) search(t *testing.T, q search.Query) []search.Hit {
	t.Helper()
	plan, sc := f.score(t, q)
	hits, err := f.part.Gather(soloVersion, plan, sc.MaxCos, sc.MaxConf, sc.MaxAuth)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestHitsAreSlimEverywhere: whichever tier a document sits in, and through
// whichever entry point, a hit carries the row fields and no payload.
func TestHitsAreSlimEverywhere(t *testing.T) {
	untiered := store.NewSharded(4)
	frozen := search.OpenSearchTiered(t, 4)
	mixed := search.OpenSearchTiered(t, 4)
	search.FillTierWave(5, 0, 200, untiered, frozen, mixed)
	search.FreezeAllShards(t, mixed)
	search.FillTierWave(5, 1, 200, untiered, frozen, mixed)
	search.FreezeAllShards(t, frozen)

	for _, tc := range []struct {
		name string
		st   *store.Store
	}{{"untiered", untiered}, {"all-frozen", frozen}, {"half-frozen", mixed}} {
		eng := search.New(tc.st)
		fleet := syncSolo(t, search.NewPartition(tc.st))
		for qi, q := range search.EquivQueries() {
			for path, hits := range map[string][]search.Hit{
				"Engine.Search":    eng.Search(q),
				"Partition.Gather": fleet.search(t, q),
			} {
				label := fmt.Sprintf("%s %s query=%d", tc.name, path, qi)
				if len(hits) == 0 {
					t.Fatalf("%s returned nothing — weak test", label)
				}
				for i, h := range hits {
					if h.Doc.Text != "" || h.Doc.Terms != nil {
						t.Fatalf("%s hit %d (%s) carries payload: text %d bytes, %d terms",
							label, i, h.Doc.URL, len(h.Doc.Text), len(h.Doc.Terms))
					}
					if h.Doc.URL == "" || h.Doc.Title == "" || h.Doc.Topic == "" {
						t.Fatalf("%s hit %d lost a row field: %+v", label, i, h.Doc)
					}
				}
			}
		}
	}
}

// TestQueryReadsNoColdPayload uses segment_cold_payload_reads_total as the
// oracle: over an all-frozen store with the snapshots already built, no
// non-phrase query moves it — not through the engine, the partition calls
// or the rpc search and gather handlers — and the portal page moves it by
// exactly one body read per rendered row. (A phrase query reads bodies to
// match stem sequences, once per document; that is its filter, not hit
// assembly.)
func TestQueryReadsNoColdPayload(t *testing.T) {
	st := search.OpenSearchTiered(t, 4)
	search.FillTierWave(9, 0, 300, st)
	search.FreezeAllShards(t, st)

	var queries []search.Query
	for _, q := range search.EquivQueries() {
		if !strings.Contains(q.Text, `"`) {
			queries = append(queries, q)
		}
	}
	eng := search.New(st)
	eng.Search(queries[0]) // builds the engine's snapshot
	srv := rpc.NewServer(st)
	fleet := syncSolo(t, srv.Partition())

	reads := metrics.NewCounter("segment_cold_payload_reads_total")
	before := reads.Value()
	if before == 0 {
		t.Fatal("snapshot build over cold documents did not move the counter — oracle is dead")
	}
	for qi, q := range queries {
		if len(eng.Search(q)) == 0 || len(fleet.search(t, q)) == 0 {
			t.Fatalf("query %d returned nothing — weak test", qi)
		}
		plan, sc := fleet.score(t, q)
		body, err := json.Marshal(rpc.GatherRequest{V: rpc.ProtoVersion, Version: soloVersion, Plan: *plan,
			MaxCos: sc.MaxCos, MaxConf: sc.MaxConf, MaxAuth: sc.MaxAuth})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, rpc.PathGather, bytes.NewReader(body)))
		var resp rpc.GatherResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || len(resp.Hits) == 0 {
			t.Fatalf("query %d: gather status %d, %d hits, err %v", qi, w.Code, len(resp.Hits), err)
		}
		if body, err = json.Marshal(rpc.SearchRequest{V: rpc.ProtoVersion, Version: soloVersion, Plan: *plan}); err != nil {
			t.Fatal(err)
		}
		w = httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, rpc.PathSearch, bytes.NewReader(body)))
		var sresp rpc.SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sresp); err != nil || w.Code != http.StatusOK || len(sresp.URL) == 0 {
			t.Fatalf("query %d: search status %d, %d rows, err %v", qi, w.Code, len(sresp.URL), err)
		}
		if got := reads.Value(); got != before {
			t.Fatalf("query %d read %d cold payloads on the query path", qi, got-before)
		}
	}

	w := httptest.NewRecorder()
	portal.NewWithEngine(st, eng).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/search?q=recovery+transaction", nil))
	rows := strings.Count(w.Body.String(), "<div class=snippet>")
	if w.Code != http.StatusOK || rows == 0 {
		t.Fatalf("portal search: status %d, %d rows", w.Code, rows)
	}
	if got := reads.Value() - before; got != int64(rows) {
		t.Fatalf("portal rendered %d rows but read %d cold payloads", rows, got)
	}
}
