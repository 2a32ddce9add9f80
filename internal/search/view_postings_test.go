package search

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// The view-postings contract: a shard snap's term-major postings are the
// store's postings of that shard at the snap's epoch, and because a query
// reads only them, a pinned version keeps answering the same way whatever
// the store does afterwards.

// viewPosting is one (seq, 1+log(tf)) pair as the snap holds it.
type viewPosting struct {
	seq int64
	w   uint64 // Float64bits of the weight
}

// checkViewPostings requires every snap of v to hold exactly the store's
// postings of its shard, for every term of the snap's vocabulary and of
// extra: the same sequences, sequence-ascending, with weights bit-equal to
// 1+log(tf) of the store's tf.
func checkViewPostings(t *testing.T, label string, st *store.Store, v *searchView, extra []string) {
	t.Helper()
	bits := st.ShardBits()
	for si, sn := range v.shards {
		if ep := st.ShardEpoch(si); sn.epoch != ep {
			t.Fatalf("%s shard %d: snap epoch %d, store %d — not the same state", label, si, sn.epoch, ep)
		}
		if len(sn.postSeq) != len(sn.termIDs) || len(sn.postW) != len(sn.termIDs) {
			t.Fatalf("%s shard %d: %d/%d postings for %d CSR entries", label, si, len(sn.postSeq), len(sn.postW), len(sn.termIDs))
		}
		terms := append(slices.Clone(sn.terms), extra...)
		for _, term := range terms {
			var want []viewPosting
			st.VisitPostings(term, func(doc store.DocID, tf int) {
				if st.ShardOf(doc) == si {
					want = append(want, viewPosting{int64(doc) >> bits, math.Float64bits(1 + math.Log(float64(tf)))})
				}
			})
			slices.SortFunc(want, func(a, b viewPosting) int { return int(a.seq - b.seq) })
			var got []viewPosting
			if tid, ok := sn.tids[term]; ok {
				if sn.terms[tid] != term {
					t.Fatalf("%s shard %d: tids[%q] = %d names %q", label, si, term, tid, sn.terms[tid])
				}
				for p := sn.postOff[tid]; p < sn.postOff[tid+1]; p++ {
					got = append(got, viewPosting{int64(sn.postSeq[p]), math.Float64bits(sn.postW[p])})
				}
			}
			if !slices.Equal(want, got) {
				t.Fatalf("%s shard %d term %q: view postings %v, store %v", label, si, term, got, want)
			}
		}
	}
}

// TestViewPostingsMatchStore walks a tiered store through every tier state
// — all in the memtable, all in segments, mixed, partly compacted, after
// deletes and recrawl replacements, after a reopen — and in each requires
// the view's postings to equal the store's.
func TestViewPostingsMatchStore(t *testing.T) {
	const p = 4
	dir := t.TempDir()
	st, err := store.OpenTiered(dir, p, searchTierOpts())
	if err != nil {
		t.Fatalf("OpenTiered: %v", err)
	}
	defer func() { st.Close() }()
	e := New(st)
	extra := append(slices.Clone(equivVocab), "replacedterm")
	check := func(label string) {
		t.Helper()
		checkViewPostings(t, label, st, e.snapshot(), extra)
	}

	fillTierWave(17, 0, 200, st)
	check("all-memory")
	freezeAllShards(t, st)
	fillTierWave(17, 1, 1, st) // a write, so the view rebuilds
	freezeAllShards(t, st)
	check("all-segment")
	fillTierWave(17, 2, 60, st)
	check("mixed")

	for wave := 3; wave <= 5; wave++ {
		freezeAllShards(t, st)
		fillTierWave(17, wave, 40, st)
	}
	freezeAllShards(t, st)
	merged := false
	for i := 0; i < p; i++ {
		did, err := st.CompactShard(i)
		if err != nil {
			t.Fatalf("compact shard %d: %v", i, err)
		}
		merged = merged || did
	}
	if !merged {
		t.Fatal("no shard had a run to merge — weak test")
	}
	fillTierWave(17, 6, 30, st)
	check("mid-compaction")

	// Delete and recrawl rows in segments (waves 0–5) and in the memtable
	// (wave 6); a replacement gets a new DocID and new terms.
	var urls []string
	st.VisitDocs(func(d store.Document) bool {
		urls = append(urls, d.URL)
		return true
	})
	slices.Sort(urls)
	deleted, replaced := 0, 0
	for i, u := range urls {
		switch i % 7 {
		case 0:
			if !st.Delete(u) {
				t.Fatalf("delete %s failed", u)
			}
			deleted++
		case 3:
			st.Insert(store.Document{URL: u, Title: "recrawl", Topic: "ROOT/db", Confidence: 0.25,
				Terms: map[string]int{"replacedterm": 2, "recoveri": 1 + i%3}})
			replaced++
		}
	}
	if deleted == 0 || replaced == 0 {
		t.Fatal("no row deleted or replaced — weak test")
	}
	check("deletes+replacements")

	// Reopen from segments and the WAL tail.
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st, err = store.OpenTiered(dir, p, searchTierOpts()); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e = New(st)
	check("reopen")
}

// pinnedAnswer is everything a version answers for one plan.
type pinnedAnswer struct {
	score ScoreStats
	sky   *Skyband
	hits  []Hit
}

func answerPinned(t *testing.T, p *Partition, version string, plan *Plan) pinnedAnswer {
	t.Helper()
	sc, err := p.Score(version, plan)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	sky, err := p.Search(version, plan)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	hits, err := p.Gather(version, plan, sc.MaxCos, sc.MaxConf, sc.MaxAuth)
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	return pinnedAnswer{sc, sky, hits}
}

func sameFloats(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// samePinned requires two answers to be bit-identical.
func samePinned(t *testing.T, label string, want, got pinnedAnswer) {
	t.Helper()
	w, g := want.score, got.score
	if w.Candidates != g.Candidates || w.Survivors != g.Survivors {
		t.Fatalf("%s: candidates/survivors %d/%d, want %d/%d", label, g.Candidates, g.Survivors, w.Candidates, w.Survivors)
	}
	sameFloats(t, label+" maxima", []float64{w.MaxCos, w.MaxConf, w.MaxAuth}, []float64{g.MaxCos, g.MaxConf, g.MaxAuth})
	ws, gs := want.sky, got.sky
	if ws.ScoreStats != w || gs.ScoreStats != g {
		t.Fatalf("%s: Search and Score disagree on the scatter", label)
	}
	if !slices.Equal(ws.URL, gs.URL) || !slices.Equal(ws.Title, gs.Title) || !slices.Equal(ws.Topic, gs.Topic) {
		t.Fatalf("%s: skyband rows %v, want %v", label, gs.URL, ws.URL)
	}
	sameFloats(t, label+" sky.cos", ws.Cos, gs.Cos)
	sameFloats(t, label+" sky.conf", ws.Conf, gs.Conf)
	sameFloats(t, label+" sky.auth", ws.Auth, gs.Auth)
	sameHits(t, label+" gather", want.hits, got.hits)
}

// TestPinnedVersionIgnoresLaterWrites pins a version, then deletes,
// recrawls and inserts documents carrying the query terms — in an
// untiered store, and in a tiered one where the victims are a memtable row
// and a (tombstoned) segment row. Every answer under the pinned version
// must stay bit-identical: its documents, df and idf were fixed at the
// pin, so its postings must be too. A fresh sync must see the writes.
func TestPinnedVersionIgnoresLaterWrites(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiered=%v", tiered), func(t *testing.T) {
			var st *store.Store
			if tiered {
				st = openSearchTiered(t, 2)
			} else {
				st = store.NewSharded(2)
			}
			fillTierWave(23, 0, 150, st)
			if tiered {
				freezeAllShards(t, st) // wave 0 lives in segments
			}
			fillTierWave(23, 1, 60, st) // wave 1 in the memtable

			p := NewPartition(st)
			syncVersion := func(version string) []*Plan {
				t.Helper()
				stats := p.Stats()
				if err := pushOwnStats(p, version, stats); err != nil {
					t.Fatal(err)
				}
				var links []store.Link
				st.VisitLinks(func(l store.Link) bool {
					links = append(links, l)
					return true
				})
				var urls []string
				var scores []float64
				for u, a := range AuthorityFromLinks(links) {
					urls = append(urls, u)
					scores = append(scores, a)
				}
				if err := p.SetAuth(version, urls, scores); err != nil {
					t.Fatal(err)
				}
				df := make(map[string]int, len(stats.Terms))
				for i, term := range stats.Terms {
					df[term] = stats.DF[i]
				}
				idf := vsm.TableFromDocFreq(df, stats.NumDocs)
				var plans []*Plan
				// A phrase filter reads cold bodies for its stem cache;
				// the pinned contract is about scoring, so plans here
				// carry none.
				for _, q := range equivQueries() {
					if strings.Contains(q.Text, `"`) {
						continue
					}
					q.Limit = 100
					plan, ok := p.eng.planner.Plan(q, idf)
					if !ok {
						t.Fatalf("query %q planned to nothing", q.Text)
					}
					plans = append(plans, plan)
				}
				return plans
			}
			plans := syncVersion("g1")
			before := make([]pinnedAnswer, len(plans))
			for i, plan := range plans {
				before[i] = answerPinned(t, p, "g1", plan)
				if len(before[i].hits) == 0 {
					t.Fatalf("plan %d has no hits — weak test", i)
				}
			}

			// Victims: the best hit of the first plan from each wave (a
			// segment row and a memtable row when tiered) is deleted, the
			// second is recrawled, and a new wave is inserted.
			var victims [2][]string
			for _, h := range before[0].hits {
				w := 0
				if strings.Contains(h.Doc.URL, ".w1.") {
					w = 1
				}
				victims[w] = append(victims[w], h.Doc.URL)
			}
			for w, urls := range victims {
				if len(urls) < 2 {
					t.Fatalf("wave %d has %d hits — weak test", w, len(urls))
				}
				if !st.Delete(urls[0]) {
					t.Fatalf("delete %s failed", urls[0])
				}
				st.Insert(store.Document{URL: urls[1], Title: "recrawl", Topic: "ROOT/db", Confidence: 0.9,
					Terms: map[string]int{"recoveri": 4, "transact": 4, "databas": 4}})
			}
			fillTierWave(23, 2, 40, st)

			for i, plan := range plans {
				samePinned(t, fmt.Sprintf("plan %d after writes", i), before[i], answerPinned(t, p, "g1", plan))
			}
			// The previous version stays servable, still pinned, after a
			// newer sync — and the newer one sees the writes.
			plans2 := syncVersion("g2")
			for i, plan := range plans {
				samePinned(t, fmt.Sprintf("plan %d as the previous version", i), before[i], answerPinned(t, p, "g1", plan))
			}
			for _, h := range answerPinned(t, p, "g2", plans2[0]).hits {
				if h.Doc.URL == victims[0][0] || h.Doc.URL == victims[1][0] {
					t.Fatalf("fresh sync still ranks deleted %s", h.Doc.URL)
				}
			}
		})
	}
}
