package coord

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
)

// The network equivalence suite — the distributed extension of the search
// package's sharding matrix: for every seed and shard-server count S, a
// coordinator scatter-gathering over S shardd-equivalent servers must
// return results BIT-identical to a single process holding the whole
// corpus. Process placement is a layout decision, never a semantics
// decision, even across a JSON wire.

var distVocab = []string{
	"databas", "recoveri", "transact", "aries", "log", "lock", "btree",
	"index", "join", "queri", "optim", "concurr", "commit", "abort",
	"replic", "shard", "crawl", "classifi", "svm", "portal",
}

// distFleet is one running topology: S shard servers plus a coordinator.
type distFleet struct {
	servers []*httptest.Server
	rpcSrvs []*rpc.Server
	coord   *Coordinator
}

func (f *distFleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// startFleet boots one rpc.Server per store behind an httptest listener
// and a coordinator over all of them. Hedging is disabled so -race runs
// don't double every request.
func startFleet(t *testing.T, stores []*store.Store) *distFleet {
	t.Helper()
	f := &distFleet{}
	addrs := make([]string, len(stores))
	for i, st := range stores {
		srv := rpc.NewServer(st)
		srv.SetReady(true)
		hs := httptest.NewServer(srv.Handler())
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

// buildDistCorpus builds the same deterministic corpus as one single
// store (the baseline) and, for each server count, S partition stores
// with documents and links routed by store.RouteURL — exactly the split
// the ingest Router performs.
func buildDistCorpus(seed int64, nDocs int, serverCounts []int) (*store.Store, map[int][]*store.Store) {
	single := store.NewSharded(4)
	fleets := make(map[int][]*store.Store, len(serverCounts))
	for _, s := range serverCounts {
		parts := make([]*store.Store, s)
		for i := range parts {
			parts[i] = store.NewSharded(2)
		}
		fleets[s] = parts
	}
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"ROOT/db", "ROOT/db/recovery", "ROOT/os", "ROOT/OTHERS"}
	urls := make([]string, nDocs)
	for i := 0; i < nDocs; i++ {
		urls[i] = fmt.Sprintf("http://h%d.seed%d.example/doc%d", rng.Intn(40), seed, i)
		d := store.Document{
			URL:        urls[i],
			Title:      fmt.Sprintf("doc %d", i),
			Text:       "recovery transaction database",
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Terms:      map[string]int{},
		}
		nTerms := 3 + rng.Intn(6)
		for t := 0; t < nTerms; t++ {
			d.Terms[distVocab[rng.Intn(len(distVocab))]] += 1 + rng.Intn(4)
		}
		insert := func(st *store.Store) {
			cp := d
			cp.Terms = make(map[string]int, len(d.Terms))
			for k, v := range d.Terms {
				cp.Terms[k] = v
			}
			st.Insert(cp)
		}
		insert(single)
		for s, parts := range fleets {
			insert(parts[store.RouteURL(d.URL, s)])
		}
	}
	nLinks := nDocs * 2
	for i := 0; i < nLinks; i++ {
		from, to := urls[rng.Intn(nDocs)], urls[rng.Intn(nDocs)]
		if from == to {
			continue
		}
		l := store.Link{From: from, To: to, Anchor: "link"}
		single.AddLink(l)
		for s, parts := range fleets {
			parts[store.RouteURL(l.From, s)].AddLink(l)
		}
	}
	return single, fleets
}

func distQueries() []search.Query {
	return []search.Query{
		{Text: "recovery transaction"},
		{Text: "recovery transaction", Exact: true},
		{Text: "database", Topic: "ROOT/db"},
		{Text: "database index btree", Limit: 25},
		{Text: "recovery", Weights: search.Weights{Cosine: 0.5, Confidence: 0.5}},
		{Text: "transaction log", Weights: search.Weights{Cosine: 0.4, Confidence: 0.3, Authority: 0.3}},
		{Text: `"recovery transaction" database`},
	}
}

// sameAsLocal asserts a distributed answer is bit-identical to the
// single-process hit list: same URLs in the same order, exactly equal
// float64 bits on every component.
func sameAsLocal(t *testing.T, label string, want []search.Hit, got []serve.HitJSON) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, baseline has %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Doc.URL != g.URL {
			t.Fatalf("%s: hit %d is %q, baseline %q", label, i, g.URL, w.Doc.URL)
		}
		if w.Doc.Title != g.Title || w.Doc.Topic != g.Topic {
			t.Fatalf("%s: hit %d (%s) title/topic diverge: %q/%q vs %q/%q",
				label, i, g.URL, g.Title, g.Topic, w.Doc.Title, w.Doc.Topic)
		}
		for _, c := range [][3]interface{}{
			{"score", w.Score, g.Score},
			{"cosine", w.Cosine, g.Cosine},
			{"confidence", w.Confidence, g.Confidence},
			{"authority", w.Authority, g.Authority},
		} {
			wb := math.Float64bits(c[1].(float64))
			gb := math.Float64bits(c[2].(float64))
			if wb != gb {
				t.Fatalf("%s: hit %d (%s) %s = %x, baseline %x (Δ=%g)",
					label, i, w.Doc.URL, c[0], gb, wb, c[2].(float64)-c[1].(float64))
			}
		}
	}
}

// TestDistributedSearchBitIdentical is the network equivalence matrix:
// seeds × server counts × query shapes, every scatter-gathered answer
// compared bit-for-bit — floats and all — against the single-process
// engine over the same corpus.
func TestDistributedSearchBitIdentical(t *testing.T) {
	serverCounts := []int{1, 2, 4}
	for _, seed := range []int64{1, 7, 42} {
		single, fleets := buildDistCorpus(seed, 400, serverCounts)
		base := search.New(single)
		for _, s := range serverCounts {
			f := startFleet(t, fleets[s])
			if err := f.coord.Sync(context.Background()); err != nil {
				t.Fatalf("seed %d S=%d sync: %v", seed, s, err)
			}
			for qi, q := range distQueries() {
				want := base.Search(q)
				if len(want) == 0 {
					t.Fatalf("seed %d query %d returned nothing — weak test", seed, qi)
				}
				res, err := f.coord.Search(context.Background(), q)
				if err != nil {
					t.Fatalf("seed %d S=%d query %d: %v", seed, s, qi, err)
				}
				if res.Degraded {
					t.Fatalf("seed %d S=%d query %d degraded with all shards up (missing %v)",
						seed, s, qi, res.Missing)
				}
				sameAsLocal(t, fmt.Sprintf("seed=%d S=%d query=%d", seed, s, qi), want, res.Hits)
			}
			f.close()
		}
	}
}

// TestDistributedSearchAfterChurn mutates the baseline and the routed
// partitions identically, resyncs, and re-checks bit-identity — the
// distributed analogue of the dirty-shard churn test: stats pulls reuse
// clean shard snapshots, rebuilt ones must still agree exactly.
func TestDistributedSearchAfterChurn(t *testing.T) {
	single, fleets := buildDistCorpus(11, 300, []int{2})
	parts := fleets[2]
	base := search.New(single)
	f := startFleet(t, parts)
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			d := store.Document{
				URL:        fmt.Sprintf("http://churn%d.example/r%d", rng.Intn(20), round),
				Topic:      "ROOT/db",
				Confidence: float64(rng.Intn(1000)) / 1000,
				Terms:      map[string]int{"recoveri": 1 + rng.Intn(3), "shard": 2},
			}
			cp := d
			cp.Terms = map[string]int{}
			for k, v := range d.Terms {
				cp.Terms[k] = v
			}
			single.Insert(cp)
			cp2 := d
			cp2.Terms = map[string]int{}
			for k, v := range d.Terms {
				cp2.Terms[k] = v
			}
			parts[store.RouteURL(d.URL, 2)].Insert(cp2)
		}
		del := fmt.Sprintf("http://churn%d.example/r%d", rng.Intn(20), round)
		single.Delete(del)
		parts[store.RouteURL(del, 2)].Delete(del)
		if err := f.coord.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		for qi, q := range distQueries()[:5] {
			want := base.Search(q)
			res, err := f.coord.Search(context.Background(), q)
			if err != nil {
				t.Fatalf("churn round %d query %d: %v", round, qi, err)
			}
			sameAsLocal(t, fmt.Sprintf("churn round=%d query=%d", round, qi), want, res.Hits)
		}
	}
}

// TestSearchHitsMatchSingleProcess: over the same corpus, the two
// deployments answer /search with the same bytes — the whole response but
// took_ns and the provenance (epochs or version) — for the default tenant,
// and for a named tenant, whose hits carry "tenant" in both.
func TestSearchHitsMatchSingleProcess(t *testing.T) {
	single := store.NewSharded(4)
	parts := []*store.Store{store.NewSharded(2), store.NewSharded(2)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		d := store.Document{
			URL:        fmt.Sprintf("http://h%d.example/doc%d", rng.Intn(30), i),
			Title:      fmt.Sprintf("doc %d", i),
			Topic:      "ROOT/db",
			Confidence: float64(rng.Intn(1000)) / 1000,
		}
		if i%3 == 0 {
			d.Tenant = "alpha"
		}
		term := distVocab[rng.Intn(4)]
		for _, st := range []*store.Store{single, parts[store.RouteURL(d.URL, 2)]} {
			cp := d
			cp.Terms = map[string]int{term: 1 + i%3, distVocab[4+i%8]: 2}
			st.Insert(cp)
		}
	}
	f := startFleet(t, parts)
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	local := serve.New(single, search.New(single), serve.Options{})
	dist := NewAPI(f.coord)
	// Both fields are a fixed-shape scalar or array, so a pattern strips
	// them from the raw bytes.
	varying := regexp.MustCompile(`"took_ns":[0-9]+,("epochs":\[[0-9,]*\],|"version":"[^"]*",)`)
	answer := func(h http.HandlerFunc, target string) []byte {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, w.Code, w.Body.String())
		}
		if !varying.Match(w.Body.Bytes()) {
			t.Fatalf("%s: no took_ns and provenance in %s", target, w.Body.Bytes())
		}
		return varying.ReplaceAll(w.Body.Bytes(), nil)
	}
	for _, target := range []string{"/search?q=databas+recoveri&k=20", "/search?q=databas+recoveri&k=20&tenant=alpha"} {
		want, got := answer(local.HandleSearch, target), answer(dist.HandleSearch, target)
		if n := bytes.Count(want, []byte(`"url"`)); n < 10 {
			t.Fatalf("%s: only %d hits — weak test", target, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: coordinator answer differs\n got: %s\nwant: %s", target, got, want)
		}
		if strings.Contains(target, "tenant=") != bytes.Contains(got, []byte(`"tenant":"alpha"`)) {
			t.Fatalf("%s: tenant field: %s", target, got)
		}
	}
}
