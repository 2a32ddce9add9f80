package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRecrawlIsAtomicToPostingReaders recrawls one URL in a loop while a
// reader polls DocFreq and VisitPostings: every read must see exactly one
// document holding "x" — the old row or its replacement, never neither and
// never both. It covers untiered and tiered stores (the tiered writer also
// freezes now and then), through Insert and through Workspace.Flush.
func TestRecrawlIsAtomicToPostingReaders(t *testing.T) {
	terms := map[string]int{"x": 1}
	for i := 0; i < 200; i++ {
		terms[fmt.Sprintf("t%d", i)] = 1 + i%3
	}
	d := Document{URL: "http://recrawl.example/", Terms: terms}
	for _, tiered := range []bool{false, true} {
		for _, path := range []string{"insert", "flush"} {
			t.Run(fmt.Sprintf("tiered=%v/%s", tiered, path), func(t *testing.T) {
				s := New()
				if tiered {
					s = openTiered(t, t.TempDir(), 1, testTierOpts())
					defer s.Close()
				}
				s.Insert(d)
				var reads, torn atomic.Int64
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if s.DocFreq("x") != 1 {
							torn.Add(1)
						}
						n := 0
						s.VisitPostings("x", func(DocID, int) { n++ })
						if n != 1 {
							torn.Add(1)
						}
						reads.Add(2)
					}
				}()
				w := s.NewWorkspace(0)
				deadline := time.Now().Add(50 * time.Millisecond)
				for i := 1; time.Now().Before(deadline) || reads.Load() < 200; i++ {
					if path == "insert" {
						s.Insert(d)
					} else {
						w.Add(d)
						if err := w.Flush(); err != nil {
							t.Fatalf("flush: %v", err)
						}
					}
					if tiered && i%64 == 0 {
						if err := s.FreezeShard(0); err != nil {
							t.Fatalf("freeze: %v", err)
						}
					}
				}
				close(stop)
				wg.Wait()
				if n := torn.Load(); n > 0 {
					t.Fatalf("%d of %d reads saw a recrawl half applied", n, reads.Load())
				}
			})
		}
	}
}

// TestRecrawlWithinOneFlush buffers two versions of one URL in a single
// workspace batch: after the flush only the second version's row exists,
// and the postings readers must see it alone — the first version's terms
// are gone with its row.
func TestRecrawlWithinOneFlush(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		s := New()
		if tiered {
			s = openTiered(t, t.TempDir(), 1, testTierOpts())
		}
		w := s.NewWorkspace(64)
		w.Add(Document{URL: "http://a.example/", Terms: map[string]int{"old": 1, "both": 2}})
		w.Add(Document{URL: "http://a.example/", Terms: map[string]int{"new": 1, "both": 3}})
		if err := w.Flush(); err != nil {
			t.Fatalf("tiered=%v: flush: %v", tiered, err)
		}
		d, err := s.GetByURL("http://a.example/")
		if err != nil {
			t.Fatalf("tiered=%v: %v", tiered, err)
		}
		var got []pair
		s.VisitPostings("both", func(id DocID, tf int) { got = append(got, pair{id, tf}) })
		if want := []pair{{d.ID, 3}}; !slices.Equal(got, want) {
			t.Errorf("tiered=%v: VisitPostings(both) = %v, want %v", tiered, got, want)
		}
		if df := s.DocFreq("old"); df != 0 {
			t.Errorf("tiered=%v: DocFreq(old) = %d after the recrawl, want 0", tiered, df)
		}
		if tiered {
			s.Close()
		}
	}
}

// pair is one (DocID, tf) posting a postings reader yields.
type pair struct {
	id DocID
	tf int
}

// rowPostings derives, from the rows alone, what VisitPostings must yield
// for every term: shard by shard in index order, first the cold rows'
// postings (read back through ColdDocTerms), then the hot rows' (their
// Terms entries with tf > 0), each in ascending DocID. cold counts the
// postings that came from cold rows.
func rowPostings(s *Store) (want map[string][]pair, cold int) {
	want = make(map[string][]pair)
	for i := 0; i < s.NumShards(); i++ {
		docs := s.ShardDocs(i)
		sort.Slice(docs, func(a, b int) bool { return docs[a].ID < docs[b].ID })
		for _, d := range docs {
			vec, _ := s.ColdDocTerms(d.ID, nil)
			for _, tc := range vec {
				want[tc.Term] = append(want[tc.Term], pair{d.ID, tc.TF})
				cold++
			}
		}
		for _, d := range docs {
			for term, tf := range d.Terms {
				if tf > 0 {
					want[term] = append(want[term], pair{d.ID, tf})
				}
			}
		}
	}
	return want, cold
}

// requirePostingsMatchRows checks VisitPostings and DocFreq against
// rowPostings for every term the rows hold and every term of vocab. It
// returns the cold-posting count.
func requirePostingsMatchRows(t *testing.T, label string, s *Store, vocab []string) int {
	t.Helper()
	want, cold := rowPostings(s)
	terms := slices.Clone(vocab)
	for term := range want {
		terms = append(terms, term)
	}
	for _, term := range terms {
		var got []pair
		s.VisitPostings(term, func(id DocID, tf int) { got = append(got, pair{id, tf}) })
		if !slices.Equal(got, want[term]) {
			t.Fatalf("%s: VisitPostings(%q) = %v, rows say %v", label, term, got, want[term])
		}
		if df := s.DocFreq(term); df != len(want[term]) {
			t.Fatalf("%s: DocFreq(%q) = %d, rows say %d", label, term, df, len(want[term]))
		}
	}
	return cold
}

// TestPostingReadersMatchRows drives random insert / recrawl / delete
// sequences — and, tiered, FreezeShard, CompactShard and close + reopen —
// at 1 and 8 shards, and after every step requires the off-path postings
// readers to agree with the rows.
func TestPostingReadersMatchRows(t *testing.T) {
	vocab := []string{"missing"}
	for i := 0; i < 24; i++ {
		vocab = append(vocab, fmt.Sprintf("w%d", i))
	}
	for _, p := range []int{1, 8} {
		for _, tiered := range []bool{false, true} {
			t.Run(fmt.Sprintf("p=%d/tiered=%v", p, tiered), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					cold, merges := runPostingOracle(t, p, tiered, seed, vocab)
					if tiered && (cold == 0 || merges == 0) {
						t.Fatalf("seed %d: %d cold postings checked, %d compactions ran; the sequence never exercised the segments", seed, cold, merges)
					}
				}
			})
		}
	}
}

// runPostingOracle runs one random sequence and returns how many cold
// postings its checks saw in total and how many compactions merged.
func runPostingOracle(t *testing.T, p int, tiered bool, seed int64, vocab []string) (cold, merges int) {
	rng := rand.New(rand.NewSource(seed))
	opt := testTierOpts()
	opt.CompactFanout = 2
	dir := t.TempDir()
	s := NewSharded(p)
	if tiered {
		s = openTiered(t, dir, p, opt)
	}
	defer func() {
		if tiered {
			s.Close()
		}
	}()
	var urls []string
	pickURL := func() string {
		if len(urls) > 0 && rng.Intn(3) > 0 {
			return urls[rng.Intn(len(urls))] // a recrawl, or a delete that hits
		}
		u := fmt.Sprintf("http://h%d.example/%d", rng.Intn(7), len(urls))
		urls = append(urls, u)
		return u
	}
	newDoc := func() Document {
		terms := make(map[string]int)
		for n := 1 + rng.Intn(6); len(terms) < n; {
			terms[vocab[1+rng.Intn(len(vocab)-1)]] = 1 + rng.Intn(5)
		}
		return Document{URL: pickURL(), Text: "body", Terms: terms}
	}
	for step := 0; step < 80; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r < 3:
			op = "insert"
			s.Insert(newDoc())
		case r < 5:
			op = "flush"
			w := s.NewWorkspace(64)
			for k := 1 + rng.Intn(6); k > 0; k-- {
				w.Add(newDoc())
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("seed %d step %d: flush: %v", seed, step, err)
			}
		case r < 6:
			op = "delete"
			s.Delete(pickURL())
		case !tiered:
			op = "insert"
			s.Insert(newDoc())
		case r < 8:
			op = "freeze"
			if err := s.FreezeShard(rng.Intn(p)); err != nil {
				t.Fatalf("seed %d step %d: freeze: %v", seed, step, err)
			}
		case r < 9:
			op = "compact"
			for i := 0; i < p; i++ {
				did, err := s.CompactShard(i)
				if err != nil {
					t.Fatalf("seed %d step %d: compact shard %d: %v", seed, step, i, err)
				}
				if did {
					merges++
				}
			}
		default:
			op = "reopen"
			if err := s.Close(); err != nil {
				t.Fatalf("seed %d step %d: close: %v", seed, step, err)
			}
			s = openTiered(t, dir, p, opt)
		}
		cold += requirePostingsMatchRows(t, fmt.Sprintf("p=%d tiered=%v seed %d step %d (%s)", p, tiered, seed, step, op), s, vocab)
	}
	return cold, merges
}
