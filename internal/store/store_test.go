package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func doc(url, topic string, conf float64, terms map[string]int) Document {
	return Document{URL: url, Topic: topic, Confidence: conf, Terms: terms, CrawledAt: time.Unix(1041379200, 0)}
}

func TestInsertGetDelete(t *testing.T) {
	s := New()
	id := s.Insert(doc("http://a/1", "db", 0.8, map[string]int{"databas": 3}))
	if id == 0 {
		t.Fatal("zero id")
	}
	d, err := s.Get(id)
	if err != nil || d.URL != "http://a/1" {
		t.Fatalf("Get = %+v, %v", d, err)
	}
	d, err = s.GetByURL("http://a/1")
	if err != nil || d.ID != id {
		t.Fatalf("GetByURL = %+v, %v", d, err)
	}
	if !s.Contains("http://a/1") || s.Contains("http://a/2") {
		t.Error("Contains wrong")
	}
	if !s.Delete("http://a/1") {
		t.Fatal("Delete failed")
	}
	if s.Delete("http://a/1") {
		t.Fatal("double delete succeeded")
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if s.DocFreq("databas") != 0 {
		t.Error("index not cleaned on delete")
	}
}

func TestRecrawlReplaces(t *testing.T) {
	s := New()
	s.Insert(doc("http://a/1", "db", 0.5, map[string]int{"old": 1}))
	s.Insert(doc("http://a/1", "ir", 0.9, map[string]int{"new": 1}))
	if s.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	d, _ := s.GetByURL("http://a/1")
	if d.Topic != "ir" || d.Terms["new"] != 1 {
		t.Fatalf("replacement wrong: %+v", d)
	}
	if s.DocFreq("old") != 0 {
		t.Error("stale posting kept")
	}
	if got := s.ByTopic("db"); len(got) != 0 {
		t.Errorf("stale topic entry: %v", got)
	}
}

func TestByTopicOrdering(t *testing.T) {
	s := New()
	s.Insert(doc("u1", "db", 0.2, nil))
	s.Insert(doc("u2", "db", 0.9, nil))
	s.Insert(doc("u3", "db", 0.5, nil))
	s.Insert(doc("u4", "ir", 0.7, nil))
	got := s.ByTopic("db")
	if len(got) != 3 || got[0].URL != "u2" || got[1].URL != "u3" || got[2].URL != "u1" {
		t.Fatalf("ByTopic = %+v", got)
	}
	topics := s.Topics()
	if len(topics) != 2 || topics[0] != "db" || topics[1] != "ir" {
		t.Fatalf("Topics = %v", topics)
	}
}

func TestPostingsAndDocFreq(t *testing.T) {
	s := New()
	id1 := s.Insert(doc("u1", "", 0, map[string]int{"db": 2, "ir": 1}))
	id2 := s.Insert(doc("u2", "", 0, map[string]int{"db": 5}))
	var ids []DocID
	var tfs []int
	s.VisitPostings("db", func(id DocID, tf int) {
		ids = append(ids, id)
		tfs = append(tfs, tf)
	})
	if len(ids) != 2 || ids[0] != id1 || ids[1] != id2 || tfs[1] != 5 {
		t.Fatalf("VisitPostings = %v %v", ids, tfs)
	}
	if s.DocFreq("db") != 2 || s.DocFreq("ir") != 1 || s.DocFreq("zzz") != 0 {
		t.Error("DocFreq wrong")
	}
}

func TestLinksRedirectsAnchors(t *testing.T) {
	s := New()
	s.AddLink(Link{From: "a", To: "b", Anchor: "to b"})
	s.AddLink(Link{From: "a", To: "c"})
	s.AddLink(Link{From: "d", To: "b", Anchor: "also b"})
	s.AddRedirect(Redirect{From: "old", To: "new"})
	if got := s.Successors("a"); len(got) != 2 {
		t.Errorf("Successors = %v", got)
	}
	if got := s.Predecessors("b"); len(got) != 2 {
		t.Errorf("Predecessors = %v", got)
	}
	if got := s.InAnchors("b"); len(got) != 2 || got[0] != "to b" {
		t.Errorf("InAnchors = %v", got)
	}
	if got := s.Redirects(); len(got) != 1 || got[0].From != "old" {
		t.Errorf("Redirects = %v", got)
	}
	if got := s.Links(); len(got) != 3 {
		t.Errorf("Links = %v", got)
	}
}

func TestWorkspaceBatching(t *testing.T) {
	s := New()
	w := s.NewWorkspace(3)
	for i := 0; i < 7; i++ {
		w.Add(doc(fmt.Sprintf("u%d", i), "t", 0, map[string]int{"x": 1}))
	}
	// two auto-flushes at 3 and 6; one doc pending
	if s.NumDocs() != 6 || w.Pending() != 1 {
		t.Fatalf("docs=%d pending=%d", s.NumDocs(), w.Pending())
	}
	w.AddLink(Link{From: "u0", To: "u1"})
	w.AddRedirect(Redirect{From: "r", To: "s"})
	w.Flush()
	if s.NumDocs() != 7 || len(s.Successors("u0")) != 1 || len(s.Redirects()) != 1 {
		t.Fatal("final flush incomplete")
	}
	inserts, bulk := s.Counters()
	if inserts != 0 || bulk != 3 {
		t.Fatalf("counters = %d,%d", inserts, bulk)
	}
	w.Flush() // empty flush is a no-op
	if _, bulk := s.Counters(); bulk != 3 {
		t.Error("empty flush counted")
	}
}

func TestConcurrentWorkspaces(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	const threads, perThread = 8, 100
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := s.NewWorkspace(16)
			for i := 0; i < perThread; i++ {
				w.Add(doc(fmt.Sprintf("g%d-u%d", g, i), "t", rand.Float64(), map[string]int{"x": 1}))
			}
			w.Flush()
		}(g)
	}
	wg.Wait()
	if s.NumDocs() != threads*perThread {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	if s.DocFreq("x") != threads*perThread {
		t.Fatalf("DocFreq = %d", s.DocFreq("x"))
	}
}

// Property: after any sequence of inserts/deletes the URL index, topic index
// and inverted index are mutually consistent.
func TestStoreConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		s := New()
		live := map[string]map[string]int{}
		for op := 0; op < 150; op++ {
			u := fmt.Sprintf("u%d", rng.Intn(25))
			if rng.Intn(3) < 2 {
				terms := map[string]int{fmt.Sprintf("t%d", rng.Intn(6)): 1 + rng.Intn(3)}
				s.Insert(doc(u, "topic", rng.Float64(), terms))
				live[u] = terms
			} else {
				s.Delete(u)
				delete(live, u)
			}
		}
		if s.NumDocs() != len(live) {
			return false
		}
		// every live doc retrievable with correct terms
		for u, terms := range live {
			d, err := s.GetByURL(u)
			if err != nil {
				return false
			}
			for k, v := range terms {
				if d.Terms[k] != v {
					return false
				}
			}
		}
		// doc freq matches live docs
		df := map[string]int{}
		for _, terms := range live {
			for k := range terms {
				df[k]++
			}
		}
		for k, n := range df {
			if s.DocFreq(k) != n {
				return false
			}
		}
		return len(s.ByTopic("topic")) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkStoreBulkLoad measures the §4.1 bulk-load path; the paper's
// system sustains ~10k documents/minute — this implementation should exceed
// that by orders of magnitude, but the interesting comparison is against
// BenchmarkStoreRowInserts below.
func BenchmarkStoreBulkLoad(b *testing.B) {
	terms := map[string]int{"databas": 3, "recoveri": 1, "system": 2}
	b.ReportAllocs()
	s := New()
	w := s.NewWorkspace(256)
	for i := 0; i < b.N; i++ {
		w.Add(Document{URL: fmt.Sprintf("u%d", i), Topic: "t", Terms: terms})
	}
	w.Flush()
}

func BenchmarkStoreRowInserts(b *testing.B) {
	terms := map[string]int{"databas": 3, "recoveri": 1, "system": 2}
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Insert(Document{URL: fmt.Sprintf("u%d", i), Topic: "t", Terms: terms})
	}
}

// TestEpochAdvancesOnEveryMutation pins the cache-key contract: every write
// path bumps the epoch, so derived caches keyed on it can never serve stale
// data — in particular a delete followed by an insert, which leaves
// NumDocs unchanged and used to fool count-keyed caches.
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	s := New()
	last := s.Epoch()
	step := func(op string, f func()) {
		t.Helper()
		f()
		if got := s.Epoch(); got <= last {
			t.Errorf("%s: epoch %d did not advance past %d", op, got, last)
		} else {
			last = got
		}
	}
	terms := map[string]int{"alpha": 1}
	step("Insert", func() { s.Insert(Document{URL: "u1", Topic: "t", Terms: terms}) })
	step("AddLink", func() { s.AddLink(Link{From: "u1", To: "u2"}) })
	step("AddRedirect", func() { s.AddRedirect(Redirect{From: "a", To: "b"}) })
	step("Delete", func() { s.Delete("u1") })
	step("Insert after delete", func() { s.Insert(Document{URL: "u3", Topic: "t", Terms: terms}) })
	step("Workspace.Flush", func() {
		w := s.NewWorkspace(8)
		w.Add(Document{URL: "u4", Topic: "t", Terms: terms})
		w.Flush()
	})

	// A failed mutation leaves the epoch alone.
	before := s.Epoch()
	if s.Delete("missing") {
		t.Fatal("Delete of missing URL succeeded")
	}
	if got := s.Epoch(); got != before {
		t.Errorf("a failed delete moved epoch %d -> %d", before, got)
	}
}

// TestEpochDistinguishesDeleteInsert is the exact staleness scenario: a
// delete plus an insert restores the document count, but the epoch differs.
func TestEpochDistinguishesDeleteInsert(t *testing.T) {
	s := New()
	s.Insert(Document{URL: "u1", Topic: "t", Terms: map[string]int{"a": 1}})
	s.Insert(Document{URL: "u2", Topic: "t", Terms: map[string]int{"b": 1}})
	n, e := s.NumDocs(), s.Epoch()
	s.Delete("u2")
	s.Insert(Document{URL: "u3", Topic: "t", Terms: map[string]int{"c": 1}})
	if s.NumDocs() != n {
		t.Fatalf("NumDocs changed: %d -> %d", n, s.NumDocs())
	}
	if s.Epoch() == e {
		t.Fatal("epoch unchanged after delete+insert")
	}
}
