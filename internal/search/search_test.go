package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/bingo-search/bingo/internal/store"
)

// fixture builds a store with database-research and sports documents plus a
// link structure making "hub-target" the strongest authority.
func fixture() *store.Store {
	s := store.New()
	docs := []store.Document{
		{URL: "http://db.example/aries", Topic: "ROOT/db", Confidence: 0.9,
			Title: "ARIES recovery",
			Terms: map[string]int{"ari": 3, "recoveri": 4, "log": 2, "sourc": 1, "code": 1}},
		{URL: "http://db.example/shore", Topic: "ROOT/db", Confidence: 0.7,
			Title: "Shore storage manager",
			Terms: map[string]int{"sourc": 3, "code": 3, "releas": 2, "recoveri": 1, "storag": 2}},
		{URL: "http://db.example/survey", Topic: "ROOT/db/core", Confidence: 0.5,
			Title: "Recovery survey",
			Terms: map[string]int{"recoveri": 2, "survei": 3, "transact": 2}},
		{URL: "http://sport.example/goal", Topic: "ROOT/OTHERS", Confidence: 0.2,
			Title: "Sports news",
			Terms: map[string]int{"goal": 5, "match": 3, "recoveri": 1}},
	}
	for _, d := range docs {
		s.Insert(d)
	}
	// links: several hosts point at the shore page
	for i := 0; i < 4; i++ {
		s.AddLink(store.Link{From: fmt.Sprintf("http://h%d.example/p", i), To: "http://db.example/shore"})
	}
	s.AddLink(store.Link{From: "http://db.example/shore", To: "http://db.example/aries"})
	return s
}

func TestVagueSearchCosineRanking(t *testing.T) {
	e := New(fixture())
	hits := e.Search(Query{Text: "recovery algorithms"})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// every hit contains "recoveri"; the ARIES page has the highest tf
	if hits[0].Doc.URL != "http://db.example/aries" {
		t.Errorf("top hit = %s", hits[0].Doc.URL)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("ranking not descending at %d", i)
		}
	}
}

func TestExactFiltering(t *testing.T) {
	e := New(fixture())
	vague := e.Search(Query{Text: "source code release"})
	exact := e.Search(Query{Text: "source code release", Exact: true})
	if len(exact) != 1 || exact[0].Doc.URL != "http://db.example/shore" {
		t.Fatalf("exact = %+v", exact)
	}
	if len(vague) <= len(exact) {
		t.Errorf("vague (%d) should be broader than exact (%d)", len(vague), len(exact))
	}
}

func TestTopicFilter(t *testing.T) {
	e := New(fixture())
	all := e.Search(Query{Text: "recovery"})
	db := e.Search(Query{Text: "recovery", Topic: "ROOT/db"})
	if len(db) >= len(all) {
		t.Errorf("topic filter had no effect: %d vs %d", len(db), len(all))
	}
	for _, h := range db {
		if h.Doc.Topic != "ROOT/db" && h.Doc.Topic != "ROOT/db/core" {
			t.Errorf("hit outside subtree: %s", h.Doc.Topic)
		}
	}
	// subtree inclusion: ROOT/db/core documents match filter ROOT/db
	found := false
	for _, h := range db {
		if h.Doc.Topic == "ROOT/db/core" {
			found = true
		}
	}
	if !found {
		t.Error("subtree document missing")
	}
	// exact topic that matches nothing
	if got := e.Search(Query{Text: "recovery", Topic: "ROOT/none"}); len(got) != 0 {
		t.Errorf("bogus topic returned %d hits", len(got))
	}
}

func TestConfidenceRanking(t *testing.T) {
	e := New(fixture())
	hits := e.Search(Query{Text: "recovery", Weights: Weights{Confidence: 1}})
	if hits[0].Doc.URL != "http://db.example/aries" { // confidence 0.9
		t.Errorf("top by confidence = %s", hits[0].Doc.URL)
	}
	// scores normalized to [0,1]
	for _, h := range hits {
		if h.Confidence < 0 || h.Confidence > 1 {
			t.Errorf("confidence component out of range: %v", h.Confidence)
		}
	}
}

func TestAuthorityRanking(t *testing.T) {
	e := New(fixture())
	hits := e.Search(Query{Text: "recovery source", Weights: Weights{Authority: 1}})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Doc.URL != "http://db.example/shore" {
		t.Errorf("top by authority = %s", hits[0].Doc.URL)
	}
}

func TestCombinedWeights(t *testing.T) {
	e := New(fixture())
	hits := e.Search(Query{Text: "recovery source code",
		Weights: Weights{Cosine: 0.5, Confidence: 0.3, Authority: 0.2}})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		want := 0.5*h.Cosine + 0.3*h.Confidence + 0.2*h.Authority
		if diff := h.Score - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("score %v != combination %v", h.Score, want)
		}
	}
}

func TestLimit(t *testing.T) {
	e := New(fixture())
	hits := e.Search(Query{Text: "recovery", Limit: 2})
	if len(hits) != 2 {
		t.Errorf("limit ignored: %d", len(hits))
	}
	// default limit of 10
	hits = e.Search(Query{Text: "recovery"})
	if len(hits) > 10 {
		t.Errorf("default limit exceeded: %d", len(hits))
	}
}

func TestEmptyAndStopwordQueries(t *testing.T) {
	e := New(fixture())
	if got := e.Search(Query{Text: ""}); got != nil {
		t.Errorf("empty query = %v", got)
	}
	if got := e.Search(Query{Text: "the of and"}); got != nil {
		t.Errorf("stopword query = %v", got)
	}
	if got := e.Search(Query{Text: "zzzunknown"}); len(got) != 0 {
		t.Errorf("unknown term = %v", got)
	}
}

func BenchmarkSearch(b *testing.B) {
	s := store.New()
	for i := 0; i < 2000; i++ {
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://h%d.example/d%d", i%50, i),
			Topic:      "ROOT/db",
			Confidence: float64(i%100) / 100,
			Terms: map[string]int{
				"recoveri":                1 + i%3,
				fmt.Sprintf("t%d", i%200): 2,
			},
		})
	}
	e := New(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Search(Query{Text: "recovery"})
	}
}

func TestPhraseQueries(t *testing.T) {
	e := New(fixture())
	// "source code" appears consecutively only in the shore doc terms?
	// The fixture stores Terms but phrase matching runs over Text, so build
	// a store with real text.
	s := store.New()
	s.Insert(store.Document{
		URL: "u1", Topic: "t", Confidence: 0.5,
		Text:  "the shore source code release is available for download",
		Terms: map[string]int{"sourc": 1, "code": 1, "releas": 1, "shore": 1},
	})
	s.Insert(store.Document{
		URL: "u2", Topic: "t", Confidence: 0.5,
		Text:  "code of conduct and open source policy release notes",
		Terms: map[string]int{"sourc": 1, "code": 1, "releas": 1, "polici": 1},
	})
	e = New(s)
	// vague query matches both
	if got := e.Search(Query{Text: "source code release"}); len(got) != 2 {
		t.Fatalf("vague matches = %d", len(got))
	}
	// phrase query matches only the consecutive occurrence
	got := e.Search(Query{Text: `"source code release"`})
	if len(got) != 1 || got[0].Doc.URL != "u1" {
		t.Fatalf("phrase matches = %+v", got)
	}
	// phrase + free terms combine
	got = e.Search(Query{Text: `shore "code release"`})
	if len(got) != 1 || got[0].Doc.URL != "u1" {
		t.Fatalf("mixed matches = %+v", got)
	}
	// stemming applies inside phrases
	got = e.Search(Query{Text: `"sources codes releases"`})
	if len(got) != 1 {
		t.Fatalf("stemmed phrase matches = %d", len(got))
	}
}

func TestSplitPhrases(t *testing.T) {
	free, phrases := splitPhrases(`alpha "beta gamma" delta "eps"`)
	if strings.TrimSpace(free) != "alpha  delta" && !strings.Contains(free, "alpha") {
		t.Errorf("free = %q", free)
	}
	if len(phrases) != 2 || phrases[0] != "beta gamma" || phrases[1] != "eps" {
		t.Errorf("phrases = %v", phrases)
	}
	// unbalanced quote
	_, phrases = splitPhrases(`x "unclosed phrase`)
	if len(phrases) != 1 || phrases[0] != "unclosed phrase" {
		t.Errorf("unbalanced = %v", phrases)
	}
	// empty phrase dropped
	_, phrases = splitPhrases(`a "" b`)
	if len(phrases) != 0 {
		t.Errorf("empty phrase kept: %v", phrases)
	}
}

func TestContainsSeq(t *testing.T) {
	h := []string{"a", "b", "c", "d"}
	if !containsSeq(h, []string{"b", "c"}) || !containsSeq(h, []string{"a"}) || !containsSeq(h, nil) {
		t.Error("positive cases failed")
	}
	if containsSeq(h, []string{"c", "b"}) || containsSeq(h, []string{"a", "b", "c", "d", "e"}) {
		t.Error("negative cases failed")
	}
}

func TestCachesInvalidateOnStoreGrowth(t *testing.T) {
	s := store.New()
	s.Insert(store.Document{URL: "u1", Topic: "t", Confidence: 0.5,
		Text: "alpha beta", Terms: map[string]int{"alpha": 1, "beta": 1}})
	e := New(s)
	if got := e.Search(Query{Text: "alpha"}); len(got) != 1 {
		t.Fatalf("first search = %d", len(got))
	}
	// new document must be visible to subsequent searches (cache refresh)
	s.Insert(store.Document{URL: "u2", Topic: "t", Confidence: 0.9,
		Text: "alpha gamma", Terms: map[string]int{"alpha": 1, "gamma": 1}})
	if got := e.Search(Query{Text: "alpha"}); len(got) != 2 {
		t.Fatalf("post-insert search = %d", len(got))
	}
	// authority cache too
	s.AddLink(store.Link{From: "u1", To: "u2"})
	got := e.Search(Query{Text: "alpha", Weights: Weights{Authority: 1}})
	if len(got) != 2 || got[0].Doc.URL != "u2" {
		t.Fatalf("authority after link = %+v", got)
	}
}

func BenchmarkSearchCachedIDF(b *testing.B) {
	s := store.New()
	for i := 0; i < 3000; i++ {
		s.Insert(store.Document{
			URL:   fmt.Sprintf("http://h/%d", i),
			Topic: "t", Confidence: 0.5,
			Terms: map[string]int{"recoveri": 1, fmt.Sprintf("t%d", i%400): 2},
		})
	}
	e := New(s)
	e.Search(Query{Text: "recovery"}) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(Query{Text: "recovery"})
	}
}

// Property: for pure-cosine ranking, increasing a document's tf for a query
// term never lowers its rank relative to an otherwise identical document.
func TestCosineRankMonotoneInTF(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		s := store.New()
		low := 1 + rng.Intn(3)
		high := low + 1 + rng.Intn(5)
		s.Insert(store.Document{URL: "low", Topic: "t", Confidence: 0.5,
			Terms: map[string]int{"queri": low, "pad": 5}})
		s.Insert(store.Document{URL: "high", Topic: "t", Confidence: 0.5,
			Terms: map[string]int{"queri": high, "pad": 5}})
		hits := New(s).Search(Query{Text: "query"})
		return len(hits) == 2 && hits[0].Doc.URL == "high"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: results are always sorted by descending score with a
// deterministic URL tie-break.
func TestRankingDeterministicOrder(t *testing.T) {
	s := store.New()
	for i := 0; i < 30; i++ {
		s.Insert(store.Document{
			URL: fmt.Sprintf("http://h/%02d", i), Topic: "t",
			Confidence: 0.5,
			Terms:      map[string]int{"queri": 1}, // identical scores
		})
	}
	e := New(s)
	first := e.Search(Query{Text: "query", Limit: 30})
	for trial := 0; trial < 5; trial++ {
		again := e.Search(Query{Text: "query", Limit: 30})
		for i := range first {
			if first[i].Doc.URL != again[i].Doc.URL {
				t.Fatalf("nondeterministic order at %d", i)
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i].Score > first[i-1].Score {
			t.Fatalf("score order broken at %d", i)
		}
	}
}

// TestCachesInvalidateOnDeleteInsert is the staleness bug the epoch key
// fixes: a delete followed by an insert leaves NumDocs unchanged, so a
// count-keyed cache would keep serving the deleted document's idf and
// authority state. Every answer is also held against the cache-free
// reference scorer.
func TestCachesInvalidateOnDeleteInsert(t *testing.T) {
	s := store.New()
	s.Insert(store.Document{URL: "u1", Topic: "t", Confidence: 0.5,
		Terms: map[string]int{"alpha": 1}})
	s.Insert(store.Document{URL: "u2", Topic: "t", Confidence: 0.5,
		Terms: map[string]int{"alpha": 1, "beta": 2}})
	e := New(s)
	search := func(label string, q Query) []Hit {
		t.Helper()
		got := e.Search(q)
		equivalentHits(t, label, referenceSearch(s, q), got)
		return got
	}
	if got := search("warm-up", Query{Text: "beta"}); len(got) != 1 || got[0].Doc.URL != "u2" {
		t.Fatalf("warm-up search = %+v", got)
	}
	// Same document count, different content.
	s.Delete("u2")
	s.Insert(store.Document{URL: "u3", Topic: "t", Confidence: 0.9,
		Terms: map[string]int{"alpha": 1, "gamma": 2}})
	if got := search("deleted", Query{Text: "beta"}); len(got) != 0 {
		t.Errorf("deleted document still served: %+v", got)
	}
	got := search("replacement", Query{Text: "gamma"})
	if len(got) != 1 || got[0].Doc.URL != "u3" {
		t.Errorf("replacement document missing: %+v", got)
	}

	// Authority scores must refresh on a link append alone (count also
	// unchanged).
	auth := Query{Text: "alpha", Weights: Weights{Authority: 1}}
	search("authority warm-up", auth)
	s.AddLink(store.Link{From: "http://a.example/x", To: "u1"})
	s.AddLink(store.Link{From: "http://b.example/y", To: "u1"})
	got = search("authority after links", auth)
	if len(got) == 0 || got[0].Doc.URL != "u1" {
		t.Errorf("authority cache stale after link append: %+v", got)
	}
}

// scoringLoop is what the zero-allocation gate measures: everything a query
// does between planning and result assembly, replayed for an already-built
// plan over a pinned view.
func scoringLoop(e *Engine, v *searchView, plan *Plan) {
	qs := e.getScratch(v)
	fillPlan(qs, plan, nil)
	e.scatterAll(qs)
	if maxCos, maxConf, maxAuth, _, survivors := reduceScatter(qs); survivors > 0 {
		e.passTwo(qs, plan.Limit, maxCos, maxConf, maxAuth)
	}
	e.putScratch(qs)
}

// TestScoringLoopZeroAlloc pins the acceptance criterion: the candidate-
// scoring loop performs zero per-query allocations for non-phrase queries
// once the pooled scratch is warm — over an untiered store, and over a
// tiered one whose documents sit mostly in segments with a memtable tail.
func TestScoringLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	fill := func(s *store.Store, from, to int) {
		for i := from; i < to; i++ {
			s.Insert(store.Document{
				URL:        fmt.Sprintf("http://h%d.example/d%d", i%50, i),
				Topic:      "ROOT/db",
				Confidence: float64(i%100) / 100,
				Terms: map[string]int{
					"recoveri":                1 + i%3,
					"transact":                1 + i%2,
					fmt.Sprintf("t%d", i%200): 2,
				},
			})
		}
	}
	untiered := store.New()
	fill(untiered, 0, 2000)
	tiered := openSearchTiered(t, 4)
	fill(tiered, 0, 1500)
	freezeAllShards(t, tiered)
	fill(tiered, 1500, 2000)
	for name, s := range map[string]*store.Store{"untiered": untiered, "tiered": tiered} {
		e := New(s)
		snap := e.snapshot()
		for _, q := range []Query{
			{Text: "recovery transaction"},
			{Text: "recovery transaction", Exact: true},
			{Text: "recovery", Topic: "ROOT/db"},
		} {
			plan, ok := e.planner.Plan(q, snap.idf)
			if !ok {
				t.Fatalf("query %q planned to nothing", q.Text)
			}
			if len(e.Search(q)) == 0 {
				t.Fatalf("%s query %+v has no hits; the gate would measure an empty loop", name, q)
			}
			allocs := testing.AllocsPerRun(50, func() { scoringLoop(e, snap, plan) })
			if allocs != 0 {
				t.Errorf("%s query %+v: scoring loop allocates %.1f objects per query, want 0", name, q, allocs)
			}
		}
	}
}

// BenchmarkScoringLoop isolates the candidate-scoring loop for -benchmem
// evidence of the zero-allocation property.
func BenchmarkScoringLoop(b *testing.B) {
	s := store.New()
	for i := 0; i < 2000; i++ {
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://h%d.example/d%d", i%50, i),
			Topic:      "ROOT/db",
			Confidence: float64(i%100) / 100,
			Terms: map[string]int{
				"recoveri":                1 + i%3,
				fmt.Sprintf("t%d", i%200): 2,
			},
		})
	}
	e := New(s)
	snap := e.snapshot()
	plan, _ := e.planner.Plan(Query{Text: "recovery"}, snap.idf)
	e.Search(Query{Text: "recovery"}) // warm pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoringLoop(e, snap, plan)
	}
}
