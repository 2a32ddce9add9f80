package search

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
)

// seededWorld builds a deterministic store with varied topics, texts (for
// phrase queries), confidences, and a link graph, so the reference scorer
// and the snapshot read path can be compared over every query shape.
func seededWorld(t testing.TB, nDocs int) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	s := store.New()
	topics := []string{"ROOT/db", "ROOT/db/core", "ROOT/db/recovery", "ROOT/web", "ROOT/OTHERS"}
	vocab := []string{"recoveri", "transact", "log", "storag", "index", "queri",
		"crawl", "classif", "sourc", "code", "releas", "survei"}
	texts := []string{
		"the source code release includes recovery logging",
		"a survey of transaction recovery in database systems",
		"crawler and classifier pipeline notes",
		"storage index structures for query processing",
	}
	for i := 0; i < nDocs; i++ {
		terms := make(map[string]int)
		for k := 0; k < 3+rng.Intn(4); k++ {
			terms[vocab[rng.Intn(len(vocab))]] += 1 + rng.Intn(3)
		}
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://h%d.example/doc%d", i%17, i),
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Title:      fmt.Sprintf("document %d", i),
			Text:       texts[rng.Intn(len(texts))],
			Terms:      terms,
		})
	}
	for i := 0; i < nDocs; i++ {
		from := fmt.Sprintf("http://h%d.example/doc%d", i%17, i)
		to := fmt.Sprintf("http://h%d.example/doc%d", rng.Intn(17), rng.Intn(nDocs))
		s.AddLink(store.Link{From: from, To: to})
	}
	return s
}

// equivalentHits compares two ranked lists with a floating-point tolerance:
// the reference scorer iterates maps, so its sums can differ from the
// snapshot scorer's in the last ulp.
func equivalentHits(t *testing.T, label string, ref, indexed []Hit) {
	t.Helper()
	if len(ref) != len(indexed) {
		t.Errorf("%s: reference returned %d hits, indexed %d", label, len(ref), len(indexed))
		return
	}
	const eps = 1e-9
	for i := range ref {
		l, x := ref[i], indexed[i]
		if l.Doc.URL != x.Doc.URL {
			t.Errorf("%s: rank %d: reference %s vs indexed %s (scores %v vs %v)",
				label, i, l.Doc.URL, x.Doc.URL, l.Score, x.Score)
			continue
		}
		for _, c := range [][3]float64{
			{l.Score, x.Score, 0}, {l.Cosine, x.Cosine, 1},
			{l.Confidence, x.Confidence, 2}, {l.Authority, x.Authority, 3},
		} {
			if math.Abs(c[0]-c[1]) > eps {
				t.Errorf("%s: rank %d (%s): component %v: reference %v vs indexed %v",
					label, i, l.Doc.URL, c[2], c[0], c[1])
			}
		}
	}
}

// TestSnapshotMatchesReferenceScorer checks the core refactor invariant: on a
// seeded world, the index-native scorer returns exactly the hits and scores
// of the original per-candidate scorer (referenceSearch), across every
// query shape.
func TestSnapshotMatchesReferenceScorer(t *testing.T) {
	s := seededWorld(t, 300)
	indexedEng := New(s)

	queries := []Query{
		{Text: "recovery", Limit: 1000},
		{Text: "recovery transaction log", Limit: 1000},
		{Text: "recovery transaction", Exact: true, Limit: 1000},
		{Text: "query index storage", Topic: "ROOT/db", Limit: 1000},
		{Text: "recovery", Topic: "ROOT/db/core", Limit: 1000},
		{Text: `"source code release" recovery`, Limit: 1000},
		{Text: `"transaction recovery"`, Limit: 1000},
		{Text: "recovery log", Weights: Weights{Confidence: 1}, Limit: 1000},
		{Text: "recovery log", Weights: Weights{Authority: 1}, Limit: 1000},
		{Text: "recovery log source", Weights: Weights{Cosine: 0.5, Confidence: 0.3, Authority: 0.2}, Limit: 1000},
		{Text: "crawler classifier", Exact: true, Topic: "ROOT/web", Limit: 1000},
		{Text: "zzznothing", Limit: 1000},
	}
	for _, q := range queries {
		label := fmt.Sprintf("%q exact=%v topic=%q w=%+v", q.Text, q.Exact, q.Topic, q.Weights)
		equivalentHits(t, label, referenceSearch(s, q), indexedEng.Search(q))
	}

	// Small limits too, on a query whose scores are well separated by
	// distinct confidences (ties at the truncation boundary would make the
	// kept set legitimately differ under fp jitter).
	for _, limit := range []int{1, 3, 10} {
		q := Query{Text: "recovery", Weights: Weights{Confidence: 1}, Limit: limit}
		equivalentHits(t, fmt.Sprintf("limit=%d", limit), referenceSearch(s, q), indexedEng.Search(q))
	}
}

// TestConcurrentQueriesAndInserts runs mixed queries against a store under
// concurrent insert/link churn (meant for -race), checking per-result
// invariants during the churn and full reference/sequential agreement after it.
func TestConcurrentQueriesAndInserts(t *testing.T) {
	s := seededWorld(t, 100)
	e := New(s)
	e.Search(Query{Text: "recovery"}) // publish a first snapshot

	const writers, extraDocs = 2, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < extraDocs/writers; i++ {
				url := fmt.Sprintf("http://w%d.example/new%d", w, i)
				s.Insert(store.Document{
					URL: url, Topic: "ROOT/db", Confidence: 0.5,
					Text:  "fresh recovery notes",
					Terms: map[string]int{"recoveri": 2, "fresh": 1},
				})
				s.AddLink(store.Link{From: url, To: "http://h0.example/doc0"})
			}
		}(w)
	}
	queries := []Query{
		{Text: "recovery transaction"},
		{Text: "recovery", Exact: true, Limit: 25},
		{Text: "recovery log", Topic: "ROOT/db"},
		{Text: `"transaction recovery"`},
		{Text: "recovery", Weights: Weights{Cosine: 0.6, Confidence: 0.4}},
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(r+i)%len(queries)]
				hits := e.Search(q)
				limit := q.Limit
				if limit <= 0 {
					limit = 10
				}
				if len(hits) > limit {
					t.Errorf("limit exceeded: %d > %d", len(hits), limit)
				}
				for j := range hits {
					if j > 0 && hits[j].Score > hits[j-1].Score {
						t.Errorf("ranking not descending at %d", j)
					}
					if q.Topic != "" && !topicMatches(hits[j].Doc.Topic, q.Topic) {
						t.Errorf("topic filter violated: %s", hits[j].Doc.Topic)
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// Quiescent: the churned engine must now agree with a fresh engine and
	// with the reference scorer over the final store state.
	fresh := New(s)
	for _, q := range []Query{
		{Text: "recovery fresh", Limit: 1000},
		{Text: "recovery", Exact: true, Limit: 1000},
		{Text: "recovery", Weights: Weights{Authority: 1}, Limit: 1000},
	} {
		label := fmt.Sprintf("post-churn %q", q.Text)
		got := e.Search(q)
		equivalentHits(t, label+" vs fresh", fresh.Search(q), got)
		equivalentHits(t, label+" vs reference", referenceSearch(s, q), got)
	}
}

// TestConcurrentFlushChurnMatchesFreshEngine is the churn variant for the
// carried rebuild: a writer flushes 32-document batches over every shard —
// new URLs, recrawls and deletes — freezing and compacting in between,
// while queries keep rebuilding views over the previous ones. Once quiet,
// the churned engine, whose snaps were carried forward through every
// rebuild, must answer Float64bits-identically to a fresh engine.
func TestConcurrentFlushChurnMatchesFreshEngine(t *testing.T) {
	st := openSearchTiered(t, 8)
	fillTierWave(31, 0, 160, st)
	e := New(st)
	e.Search(Query{Text: "database"})

	texts := []string{
		"recovery transaction database log notes",
		"database index structures survey",
		"transaction concurrency and commit ordering",
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(31))
		ws := st.NewWorkspace(1000)
		for round := 0; round < 10; round++ {
			for i := 0; i < 32; i++ {
				// Every third document recrawls a URL of an earlier round.
				url := fmt.Sprintf("http://flush%d.example/r%d/d%d", i%8, round, i)
				if round > 0 && i%3 == 0 {
					url = fmt.Sprintf("http://flush%d.example/r%d/d%d", i%8, rng.Intn(round), i)
				}
				terms := map[string]int{}
				for k := 0; k < 3+rng.Intn(4); k++ {
					terms[equivVocab[rng.Intn(len(equivVocab))]] += 1 + rng.Intn(3)
				}
				ws.Add(store.Document{
					URL: url, Title: url, Text: texts[rng.Intn(len(texts))],
					Topic: "ROOT/db", Confidence: float64(rng.Intn(1000)) / 1000, Terms: terms,
				})
			}
			if err := ws.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			st.Delete(fmt.Sprintf("http://flush%d.example/r%d/d%d", round%8, round, round%8+8))
			for si := 0; si < st.NumShards(); si++ {
				if err := st.FreezeShard(si); err != nil {
					t.Errorf("freeze shard %d: %v", si, err)
					return
				}
			}
			if _, err := st.CompactShard(round % st.NumShards()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qs := equivQueries()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				e.Search(qs[i%len(qs)])
			}
		}(r)
	}
	wg.Wait()

	fresh := New(st)
	for qi, q := range equivQueries() {
		want := fresh.Search(q)
		if len(want) == 0 {
			t.Fatalf("query %d returned nothing — weak test", qi)
		}
		sameHits(t, fmt.Sprintf("post-churn query=%d", qi), want, e.Search(q))
	}
}
