package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// tenantFixture builds a store holding two portals' rows: the default
// tenant's database corpus (identical to fixture()) plus a named tenant's
// rows sharing vocabulary — and one URL — with it.
func tenantFixture(shards int) *store.Store {
	var s *store.Store
	if shards > 0 {
		s = store.NewSharded(shards)
	} else {
		s = store.New()
	}
	docs := []store.Document{
		{URL: "http://db.example/aries", Topic: "ROOT/db", Confidence: 0.9,
			Terms: map[string]int{"ari": 3, "recoveri": 4, "log": 2}},
		{URL: "http://db.example/shore", Topic: "ROOT/db", Confidence: 0.7,
			Terms: map[string]int{"sourc": 3, "code": 3, "recoveri": 1}},
		// The named tenant crawled overlapping pages — including the very
		// same URL the default tenant holds (each stores its own row).
		{Tenant: "beta", URL: "http://db.example/aries", Topic: "ROOT/db", Confidence: 0.4,
			Terms: map[string]int{"recoveri": 2, "beta": 1}},
		{Tenant: "beta", URL: "http://beta.example/page", Topic: "ROOT/db", Confidence: 0.8,
			Terms: map[string]int{"recoveri": 3, "transact": 2}},
	}
	for _, d := range docs {
		s.Insert(d)
	}
	return s
}

// TestTenantSearchIsolation: a query scoped to one tenant never returns
// another tenant's rows, over an unsharded store and over the sharded
// scatter-gather path.
func TestTenantSearchIsolation(t *testing.T) {
	for _, shards := range []int{0, 1, 8} {
		e := New(tenantFixture(shards))
		for _, tenant := range []string{"", "beta"} {
			hits := e.Search(Query{Text: "recovery", Tenant: tenant, Limit: 10})
			if len(hits) != 2 {
				t.Fatalf("shards=%d tenant=%q: %d hits, want 2", shards, tenant, len(hits))
			}
			for _, h := range hits {
				if h.Doc.Tenant != tenant {
					t.Fatalf("shards=%d tenant=%q query leaked tenant %q doc %s",
						shards, tenant, h.Doc.Tenant, h.Doc.URL)
				}
			}
		}
		// The shared URL resolves to each tenant's own row.
		def := e.Search(Query{Text: "recovery log", Tenant: "", Limit: 1})
		beta := e.Search(Query{Text: "recovery", Tenant: "beta", Limit: 10})
		if len(def) == 0 || def[0].Doc.Confidence != 0.9 {
			t.Fatalf("shards=%d: default row of shared URL = %+v", shards, def)
		}
		for _, h := range beta {
			if h.Doc.URL == "http://db.example/aries" && h.Doc.Confidence != 0.4 {
				t.Fatalf("shards=%d: beta got the default tenant's row: %+v", shards, h.Doc)
			}
		}
	}
}

// buildTenantEquivCorpus mirrors buildEquivCorpus but interleaves two
// tenants' rows in one store, identically across shard counts.
func buildTenantEquivCorpus(seed int64, nDocs int, shardCounts []int) map[int]*store.Store {
	stores := make(map[int]*store.Store, len(shardCounts))
	for _, p := range shardCounts {
		stores[p] = store.NewSharded(p)
	}
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"ROOT/db", "ROOT/db/recovery", "ROOT/os", "ROOT/OTHERS"}
	tenants := []string{"", "beta", "gamma"}
	urls := make([]string, nDocs)
	for i := 0; i < nDocs; i++ {
		urls[i] = fmt.Sprintf("http://h%d.seed%d.example/doc%d", rng.Intn(40), seed, i)
		d := store.Document{
			Tenant:     tenants[i%len(tenants)],
			URL:        urls[i],
			Title:      fmt.Sprintf("doc %d", i),
			Text:       "recovery transaction database",
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Terms:      map[string]int{},
		}
		nTerms := 3 + rng.Intn(6)
		for t := 0; t < nTerms; t++ {
			d.Terms[equivVocab[rng.Intn(len(equivVocab))]] += 1 + rng.Intn(4)
		}
		for _, st := range stores {
			cp := d
			cp.Terms = make(map[string]int, len(d.Terms))
			for k, v := range d.Terms {
				cp.Terms[k] = v
			}
			st.Insert(cp)
		}
	}
	nLinks := nDocs * 2
	for i := 0; i < nLinks; i++ {
		from, to := urls[rng.Intn(nDocs)], urls[rng.Intn(nDocs)]
		if from == to {
			continue
		}
		l := store.Link{From: from, To: to, Anchor: "link"}
		for _, st := range stores {
			st.AddLink(l)
		}
	}
	return stores
}

// TestTenantShardedSearchBitIdentical extends the equivalence matrix to
// tenant-scoped queries: seeds × shard counts × query shapes × tenants,
// every scatter-gather result bit-identical to the P=1 engine.
func TestTenantShardedSearchBitIdentical(t *testing.T) {
	shardCounts := []int{1, 2, 8}
	for _, seed := range []int64{1, 42} {
		stores := buildTenantEquivCorpus(seed, 300, shardCounts)
		base := New(stores[1])
		for _, p := range shardCounts[1:] {
			e := New(stores[p])
			for _, tenant := range []string{"", "beta", "gamma"} {
				for qi, q := range equivQueries() {
					q.Tenant = tenant
					want := base.Search(q)
					got := e.Search(q)
					if len(want) == 0 {
						continue // some shapes have no hits for a tenant slice
					}
					sameHits(t, fmt.Sprintf("seed=%d P=%d tenant=%q query=%d", seed, p, tenant, qi), want, got)
					for _, h := range got {
						if h.Doc.Tenant != tenant {
							t.Fatalf("seed=%d P=%d tenant=%q query=%d leaked tenant %q",
								seed, p, tenant, qi, h.Doc.Tenant)
						}
					}
				}
			}
		}
	}
}

// TestTenantPlanCarriesTenant: the distributed query plan carries the
// tenant, and the default tenant's plans omit the field on the wire (so
// pre-tenancy coordinators and shard servers interoperate).
func TestTenantPlanCarriesTenant(t *testing.T) {
	pl := NewPlanner()
	idf := vsm.NewCorpusStats().Snapshot()
	plan, ok := pl.Plan(Query{Text: "recovery", Tenant: "beta", Limit: 5}, idf)
	if !ok {
		t.Fatal("plan rejected")
	}
	if plan.Tenant != "beta" {
		t.Fatalf("plan.Tenant = %q", plan.Tenant)
	}
	defPlan, ok := pl.Plan(Query{Text: "recovery", Limit: 5}, idf)
	if !ok {
		t.Fatal("default plan rejected")
	}
	b, err := json.Marshal(defPlan)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("tenant")) {
		t.Fatalf("default tenant plan leaks the tenant field on the wire: %s", b)
	}
	b2, _ := json.Marshal(plan)
	if !bytes.Contains(b2, []byte(`"tenant":"beta"`)) {
		t.Fatalf("tenant missing from serialized plan: %s", b2)
	}
}
