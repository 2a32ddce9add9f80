package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/segment"
)

// testTierOpts are the defaults for tier tests: tiny freeze threshold so
// corpora split across both tiers, compaction driven manually.
func testTierOpts() TierOptions {
	return TierOptions{
		MemtableBudget:    1 << 40, // never freeze on bytes; FreezeDocs drives it
		FreezeDocs:        0,
		DisableCompaction: true,
	}
}

func openTiered(t *testing.T, dir string, p int, opt TierOptions) *Store {
	t.Helper()
	s, err := OpenTiered(dir, p, opt)
	if err != nil {
		t.Fatalf("OpenTiered: %v", err)
	}
	return s
}

// fillTier writes n documents plus links and redirects through a
// workspace, deterministically from seed.
func fillTier(t *testing.T, s *Store, seed, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	w := s.NewWorkspace(16)
	for i := 0; i < n; i++ {
		terms := map[string]int{"alpha": 1 + i%3}
		for j := 0; j < 3; j++ {
			terms[fmt.Sprintf("t%d", rng.Intn(40))] += 1 + rng.Intn(4)
		}
		u := tierURL(seed, i)
		w.Add(Document{
			URL:         u,
			FinalURL:    u,
			Title:       fmt.Sprintf("doc %d", i),
			ContentType: "text/html",
			Topic:       []string{"db", "ir", "web"}[i%3],
			Confidence:  float64(i%90) / 100,
			Depth:       i % 5,
			Text:        fmt.Sprintf("body of document %d seed %d alpha", i, seed),
			Terms:       terms,
			CrawledAt:   time.Unix(1700000000+int64(i), int64(i)*1000),
			IsTraining:  i%7 == 0,
		})
		if i%3 == 0 {
			w.AddLink(Link{From: u, To: tierURL(seed, (i+1)%n), Anchor: fmt.Sprintf("a%d", i)})
		}
		if i%11 == 0 {
			w.AddRedirect(Redirect{From: fmt.Sprintf("http://r%d.example/%d", seed, i), To: u})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func tierURL(seed, i int) string {
	return fmt.Sprintf("http://h%d.example/s%d/p%d", i%13, seed, i)
}

// freezeAll freezes every shard (and fails the test on error).
func freezeAll(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			t.Fatalf("freeze shard %d: %v", i, err)
		}
	}
}

// compactAll runs compaction to fixpoint on every shard.
func compactAll(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		for {
			did, err := s.CompactShard(i)
			if err != nil {
				t.Fatalf("compact shard %d: %v", i, err)
			}
			if !did {
				break
			}
		}
	}
}

func sortedDocs(ds []Document) []Document {
	sort.Slice(ds, func(i, j int) bool { return ds[i].URL < ds[j].URL })
	return ds
}

// requireDocsEqual compares two document sets field by field (CrawledAt by
// Equal, Terms by content).
func requireDocsEqual(t *testing.T, label string, got, want []Document) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d docs, want %d", label, len(got), len(want))
	}
	sortedDocs(got)
	sortedDocs(want)
	for i := range got {
		g, w := got[i], want[i]
		if g.URL != w.URL || g.FinalURL != w.FinalURL || g.Title != w.Title ||
			g.ContentType != w.ContentType || g.Topic != w.Topic ||
			g.Confidence != w.Confidence || g.Depth != w.Depth ||
			g.Text != w.Text || g.IsTraining != w.IsTraining ||
			!g.CrawledAt.Equal(w.CrawledAt) {
			t.Fatalf("%s: doc %s differs:\n got %+v\nwant %+v", label, w.URL, g, w)
		}
		if len(g.Terms) != len(w.Terms) {
			t.Fatalf("%s: doc %s has %d terms, want %d", label, w.URL, len(g.Terms), len(w.Terms))
		}
		for term, tf := range w.Terms {
			if g.Terms[term] != tf {
				t.Fatalf("%s: doc %s term %q tf %d, want %d", label, w.URL, term, g.Terms[term], tf)
			}
		}
	}
}

// requireStoresEqual asserts every read API agrees between two stores
// holding the same logical corpus.
func requireStoresEqual(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if g, w := got.NumDocs(), want.NumDocs(); g != w {
		t.Fatalf("%s: NumDocs %d vs %d", label, g, w)
	}
	requireDocsEqual(t, label+"/All", got.All(), want.All())
	if g, w := got.Topics(), want.Topics(); !equalStrings(g, w) {
		t.Fatalf("%s: Topics %v vs %v", label, g, w)
	}
	for _, topic := range want.Topics() {
		g, w := got.ByTopic(topic), want.ByTopic(topic)
		if len(g) != len(w) {
			t.Fatalf("%s: ByTopic(%s) %d vs %d", label, topic, len(g), len(w))
		}
		for i := range g {
			if g[i].URL != w[i].URL {
				t.Fatalf("%s: ByTopic(%s)[%d] %s vs %s", label, topic, i, g[i].URL, w[i].URL)
			}
		}
	}
	// Postings: per-term (URL, tf) multisets must match exactly. DocIDs
	// may differ across stores when replacements assigned different
	// sequence numbers, so compare by URL.
	terms := map[string]struct{}{"alpha": {}, "missing-term": {}}
	for i := 0; i < 40; i++ {
		terms[fmt.Sprintf("t%d", i)] = struct{}{}
	}
	type post struct {
		url string
		tf  int
	}
	collect := func(s *Store, term string) []post {
		// Gather IDs first: the visitor holds shard locks, so resolving
		// URLs happens after the walk, not inside it.
		var ids []DocID
		var tfs []int
		s.VisitPostings(term, func(doc DocID, tf int) {
			ids = append(ids, doc)
			tfs = append(tfs, tf)
		})
		out := make([]post, 0, len(ids))
		for i, id := range ids {
			d, err := s.Get(id)
			if err != nil {
				t.Fatalf("%s: postings(%s) doc %d: %v", label, term, id, err)
			}
			out = append(out, post{d.URL, tfs[i]})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].url != out[j].url {
				return out[i].url < out[j].url
			}
			return out[i].tf < out[j].tf
		})
		return out
	}
	for term := range terms {
		g, w := collect(got, term), collect(want, term)
		if len(g) != len(w) {
			t.Fatalf("%s: postings(%s) %d vs %d rows", label, term, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: postings(%s)[%d] %+v vs %+v", label, term, i, g[i], w[i])
			}
		}
		if gd, wd := got.DocFreq(term), want.DocFreq(term); gd != wd {
			t.Fatalf("%s: DocFreq(%s) %d vs %d", label, term, gd, wd)
		}
	}
	sortLinks := func(ls []Link) {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].From != ls[j].From {
				return ls[i].From < ls[j].From
			}
			if ls[i].To != ls[j].To {
				return ls[i].To < ls[j].To
			}
			return ls[i].Anchor < ls[j].Anchor
		})
	}
	gl, wl := got.Links(), want.Links()
	sortLinks(gl)
	sortLinks(wl)
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d links vs %d", label, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s: link[%d] %+v vs %+v", label, i, gl[i], wl[i])
		}
	}
	sortRedirs := func(rs []Redirect) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].From != rs[j].From {
				return rs[i].From < rs[j].From
			}
			return rs[i].To < rs[j].To
		})
	}
	gr, wr := got.Redirects(), want.Redirects()
	sortRedirs(gr)
	sortRedirs(wr)
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d redirects vs %d", label, len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: redirect[%d] %+v vs %+v", label, i, gr[i], wr[i])
		}
	}
	// Per-URL link reads as multisets, at every endpoint of every link —
	// targets that are not stored included.
	for _, l := range wl {
		for _, u := range []string{l.From, l.To} {
			g, w := linkReads(got, u), linkReads(want, u)
			for k, name := range []string{"Successors", "Predecessors", "InAnchors"} {
				if !equalStrings(g[k], w[k]) {
					t.Fatalf("%s: %s(%s) %v vs %v", label, name, u, g[k], w[k])
				}
			}
		}
	}
}

// linkReads returns url's Successors, Predecessors and InAnchors, each
// sorted.
func linkReads(s *Store, url string) [3][]string {
	r := [3][]string{s.Successors(url), s.Predecessors(url), s.InAnchors(url)}
	for _, v := range r {
		sort.Strings(v)
	}
	return r
}

// TestTieredMatchesMemory: a tiered store — fully hot, fully frozen, and
// frozen-then-compacted — answers every read identically to the in-memory
// store over the same writes.
func TestTieredMatchesMemory(t *testing.T) {
	for _, p := range []int{1, 4} {
		ref := NewSharded(p)
		fillTier(t, ref, 7, 200)
		s := openTiered(t, t.TempDir(), p, testTierOpts())
		fillTier(t, s, 7, 200)
		requireStoresEqual(t, fmt.Sprintf("p=%d all-hot", p), s, ref)

		freezeAll(t, s)
		requireStoresEqual(t, fmt.Sprintf("p=%d all-frozen", p), s, ref)

		// Mixed: another wave on top of the frozen tier.
		fillTier(t, ref, 8, 100)
		fillTier(t, s, 8, 100)
		requireStoresEqual(t, fmt.Sprintf("p=%d mixed", p), s, ref)

		// Several small freezes then compaction to one tier.
		freezeAll(t, s)
		fillTier(t, ref, 9, 60)
		fillTier(t, s, 9, 60)
		freezeAll(t, s)
		compactAll(t, s)
		requireStoresEqual(t, fmt.Sprintf("p=%d compacted", p), s, ref)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestTieredReopen: segments + WAL tail reconstruct the exact corpus after
// a clean close and after a simulated crash (no Close at all).
func TestTieredReopen(t *testing.T) {
	for _, crash := range []bool{false, true} {
		ref := NewSharded(2)
		fillTier(t, ref, 3, 150)
		dir := t.TempDir()
		s := openTiered(t, dir, 2, testTierOpts())
		fillTierRange(t, s, 3, 0, 100) // first wave frozen (wrap matches n=150)
		freezeAll(t, s)
		fillTierRange(t, s, 3, 100, 150) // second wave lives only in the WAL
		if !crash {
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		re := openTiered(t, dir, 2, testTierOpts())
		requireStoresEqual(t, fmt.Sprintf("reopen crash=%v", crash), re, ref)
		if rec := re.Recovery(); rec.Segments == 0 || rec.WALRecords == 0 {
			t.Fatalf("crash=%v: recovery saw %d segments, %d wal records — expected both tiers", crash, rec.Segments, rec.WALRecords)
		}
		re.Close()
		if !crash {
			s.Close()
		}
	}
}

// fillTierRange writes documents [lo, hi) of fillTier's seed sequence.
func fillTierRange(t *testing.T, s *Store, seed, lo, hi int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	w := s.NewWorkspace(16)
	for i := 0; i < hi; i++ {
		terms := map[string]int{"alpha": 1 + i%3}
		for j := 0; j < 3; j++ {
			terms[fmt.Sprintf("t%d", rng.Intn(40))] += 1 + rng.Intn(4)
		}
		if i < lo {
			continue // burn the rng so [lo,hi) matches fillTier's stream
		}
		u := tierURL(seed, i)
		w.Add(Document{
			URL:         u,
			FinalURL:    u,
			Title:       fmt.Sprintf("doc %d", i),
			ContentType: "text/html",
			Topic:       []string{"db", "ir", "web"}[i%3],
			Confidence:  float64(i%90) / 100,
			Depth:       i % 5,
			Text:        fmt.Sprintf("body of document %d seed %d alpha", i, seed),
			Terms:       terms,
			CrawledAt:   time.Unix(1700000000+int64(i), int64(i)*1000),
			IsTraining:  i%7 == 0,
		})
		if i%3 == 0 {
			w.AddLink(Link{From: u, To: tierURL(seed, (i+1)%150), Anchor: fmt.Sprintf("a%d", i)})
		}
		if i%11 == 0 {
			w.AddRedirect(Redirect{From: fmt.Sprintf("http://r%d.example/%d", seed, i), To: u})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestTieredDeleteReplaceAcrossFreeze: deletes and recrawl replacements of
// cold documents tombstone their segment rows, survive restart, and drop
// out of postings and compaction output.
func TestTieredDeleteReplaceAcrossFreeze(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	fillTier(t, s, 5, 60)
	freezeAll(t, s)

	deleted := tierURL(5, 10)
	replaced := tierURL(5, 20)
	if !s.Delete(deleted) {
		t.Fatal("delete of cold doc returned false")
	}
	s.Insert(Document{URL: replaced, Text: "replacement body", Terms: map[string]int{"replacedterm": 2}})
	if s.Contains(deleted) {
		t.Fatal("deleted doc still present")
	}
	check := func(label string, st *Store) {
		t.Helper()
		if got, err := st.GetByURL(replaced); err != nil || got.Terms["replacedterm"] != 2 || got.Text != "replacement body" {
			t.Fatalf("%s: replacement not visible: %+v %v", label, got, err)
		}
		var ids []DocID
		st.VisitPostings("alpha", func(doc DocID, tf int) { ids = append(ids, doc) })
		for _, id := range ids {
			d, err := st.Get(id)
			if err != nil {
				t.Fatalf("%s: dangling posting %d: %v", label, id, err)
			}
			if d.URL == deleted {
				t.Fatalf("%s: posting for deleted doc survived", label)
			}
			if d.URL == replaced {
				t.Fatalf("%s: stale posting for replaced doc", label)
			}
		}
		n := 0
		st.VisitPostings("replacedterm", func(DocID, int) { n++ })
		if n != 1 || st.DocFreq("replacedterm") != 1 {
			t.Fatalf("%s: replacedterm postings=%d df=%d, want 1/1", label, n, st.DocFreq("replacedterm"))
		}
	}
	check("live", s)

	// Crash-reopen: the delete and replacement live only in the WAL.
	re := openTiered(t, dir, 2, testTierOpts())
	check("reopen", re)

	// Freeze + compact: the tombstoned rows must be dropped for good.
	freezeAll(t, re)
	compactAll(t, re)
	check("compacted", re)
	re.Close()
	re2 := openTiered(t, dir, 2, testTierOpts())
	check("reopen-compacted", re2)
	re2.Close()
	s.Close()
}

// TestReplaceIssuesFreshSequence pins the contract DocID documents and the
// search snapshot's carry relies on: replacing a URL — through Insert,
// through a workspace flush, or after a reopen restored the shard sequence
// from the manifest or from the WAL — takes a sequence strictly above every
// one the shard ever issued, deleted documents' included.
func TestReplaceIssuesFreshSequence(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	defer s.Close()
	fillTier(t, s, 8, 40)
	const url = "http://replace.example/doc"
	si := s.ShardForURL(url)
	high := s.ShardMaxSeq(si) // highest sequence issued in url's shard
	doc := func(u, body string) Document {
		return Document{URL: u, Text: body, Terms: map[string]int{body: 1}}
	}
	check := func(label string, st *Store) {
		t.Helper()
		d, err := st.GetByURL(url)
		if err != nil || d.Text != label {
			t.Fatalf("%s: replacement not stored: %+v %v", label, d, err)
		}
		seq := int64(d.ID) >> st.ShardBits()
		if st.ShardOf(d.ID) != si || seq <= high {
			t.Fatalf("%s: got shard %d sequence %d; shard %d already issued %d",
				label, st.ShardOf(d.ID), seq, si, high)
		}
		high = seq
	}
	// issueDeleted makes the shard's highest issued sequence a deleted
	// document's.
	other := 0
	issueDeleted := func(st *Store) {
		t.Helper()
		for ; st.ShardForURL(fmt.Sprintf("http://other.example/%d", other)) != si; other++ {
		}
		u := fmt.Sprintf("http://other.example/%d", other)
		other++
		id := st.Insert(doc(u, "gone"))
		if !st.Delete(u) {
			t.Fatalf("delete %s failed", u)
		}
		high = int64(id) >> st.ShardBits()
	}
	replaceVia := func(label string, st *Store, useWorkspace bool) {
		t.Helper()
		issueDeleted(st)
		if useWorkspace {
			w := st.NewWorkspace(100)
			w.Add(doc(url, label))
			if err := w.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", label, err)
			}
		} else {
			st.Insert(doc(url, label))
		}
		check(label, st)
	}

	s.Insert(doc(url, "insert"))
	check("insert", s)
	replaceVia("Insert", s, false)
	replaceVia("Workspace.Flush", s, true)

	// The freeze commits the manifest and retires the WAL generation that
	// recorded the deleted document: only the manifest's NextSeq knows it.
	issueDeleted(s)
	freezeAll(t, s)
	re := openTiered(t, dir, 2, testTierOpts())
	defer re.Close()
	if rec := re.Recovery(); rec.WALRecords != 0 {
		t.Fatalf("manifest reopen replayed %d WAL records, want 0", rec.WALRecords)
	}
	re.Insert(doc(url, "Insert after manifest reopen"))
	check("Insert after manifest reopen", re)

	// A deleted document that exists only as WAL records, then a crash.
	issueDeleted(re)
	re2 := openTiered(t, dir, 2, testTierOpts())
	defer re2.Close()
	if rec := re2.Recovery(); rec.WALRecords == 0 {
		t.Fatal("WAL reopen replayed no records — weak test")
	}
	replaceVia("Insert after WAL reopen", re2, false)
	replaceVia("Workspace.Flush after WAL reopen", re2, true)
}

// TestTieredColdMetaMutations: SetTopic/SetTraining on cold documents are
// visible immediately, survive crash-reopen (WAL), survive manifest-backed
// restarts (overrides), and survive compaction re-baking.
func TestTieredColdMetaMutations(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	fillTier(t, s, 6, 40)
	freezeAll(t, s)
	u1, u2 := tierURL(6, 4), tierURL(6, 9)
	if err := s.SetTopic(u1, "newtopic", 0.93); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTraining(u2, true); err != nil {
		t.Fatal(err)
	}
	check := func(label string, st *Store) {
		t.Helper()
		d1, err := st.GetByURL(u1)
		if err != nil || d1.Topic != "newtopic" || d1.Confidence != 0.93 {
			t.Fatalf("%s: topic override lost: %+v %v", label, d1, err)
		}
		found := false
		for _, d := range st.ByTopic("newtopic") {
			if d.URL == u1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: ByTopic(newtopic) misses %s", label, u1)
		}
		d2, err := st.GetByURL(u2)
		if err != nil || !d2.IsTraining {
			t.Fatalf("%s: training override lost: %+v %v", label, d2, err)
		}
	}
	check("live", s)

	// Crash-reopen: overrides only in the WAL.
	re := openTiered(t, dir, 2, testTierOpts())
	check("wal-replay", re)

	// Freeze (commits a manifest carrying the overrides), then crash.
	fillTierRange(t, re, 6, 40, 44)
	freezeAll(t, re)
	re2 := openTiered(t, dir, 2, testTierOpts())
	check("manifest", re2)

	// Compaction re-bakes the meta; overrides drop but the values stay.
	compactAll(t, re2)
	check("compacted", re2)
	re2.Close()
	re3 := openTiered(t, dir, 2, testTierOpts())
	check("reopen-compacted", re3)
	re3.Close()
}

// TestTieredWALTornTail: a crash mid-append loses only the torn record;
// everything acknowledged before it survives.
func TestTieredWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	// Insert one doc per WAL record (no workspace batching, no trailing
	// link/redirect records) so chopping the tail provably loses the last
	// acknowledged document and nothing else.
	for i := 0; i < 30; i++ {
		s.Insert(Document{
			URL:   tierURL(2, i),
			Text:  fmt.Sprintf("torn tail body %d", i),
			Terms: map[string]int{"alpha": 1, fmt.Sprintf("t%d", i%40): 2},
		})
	}
	n := s.NumDocs()
	// Tear the WAL tail: chop a few bytes off the shard's live log.
	walPath := filepath.Join(dir, "shard-00", "wal-000001.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	re := openTiered(t, dir, 1, testTierOpts())
	got := re.NumDocs()
	if got >= n || got == 0 {
		t.Fatalf("torn tail: %d docs recovered of %d written — expected a proper non-empty prefix", got, n)
	}
	// The recovered prefix must be fully intact.
	for _, d := range re.All() {
		if d.Text == "" || len(d.Terms) == 0 {
			t.Fatalf("recovered doc %s lost its payload", d.URL)
		}
	}
	re.Close()
}

// TestTieredWALCorruption: a complete WAL record with a flipped payload
// byte is corruption — reopen fails with the typed error, never a panic.
func TestTieredWALCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	fillTier(t, s, 2, 20)
	walPath := filepath.Join(dir, "shard-00", "wal-000001.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenTiered(dir, 1, testTierOpts())
	if err == nil {
		t.Fatal("reopen over corrupt WAL succeeded")
	}
	if !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("corruption error not typed: %v", err)
	}
}

// TestTieredSegmentCorruption: flipped bytes in a segment file surface as
// typed errors (at open or on the first read that touches them) — never a
// panic, never silently wrong metadata.
func TestTieredSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	fillTier(t, s, 4, 50)
	freezeAll(t, s)
	s.Close()
	segPath := filepath.Join(dir, "shard-00", "seg-000001.bsg")
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	step := len(orig)/61 + 1
	for off := 0; off < len(orig); off += step {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xff
		if err := os.WriteFile(segPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenTiered(dir, 1, testTierOpts())
		if err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("offset %d: open error not typed: %v", off, err)
			}
			continue
		}
		// Opened: every read must either succeed or fail soft; drain the
		// full read surface to prove no panic lurks.
		for _, d := range re.All() {
			_ = d
		}
		re.VisitPostings("alpha", func(DocID, int) {})
		re.DocFreq("alpha")
		re.TierErr() // clear any fail-soft notes
		re.Close()
	}
	if err := os.WriteFile(segPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenTiered(dir, 1, testTierOpts())
	if err != nil {
		t.Fatalf("restored segment failed to open: %v", err)
	}
	re.Close()
}

// TestOpenTieredRejectsOldFormat: a data directory holding a segment of
// an older format version fails to open with an error naming the file and
// the version, and the failed open changes no file — with the byte
// restored, every document opens again.
func TestOpenTieredRejectsOldFormat(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	fillTier(t, s, 5, 60)
	freezeAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "shard-01", "seg-000001.bsg")
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), orig...)
	old[4] = 2 // the version byte follows the 4-byte magic
	if err := os.WriteFile(segPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if re, err := OpenTiered(dir, 2, testTierOpts()); err == nil {
		re.Close()
		t.Fatal("OpenTiered accepted a version 2 segment")
	} else if !strings.Contains(err.Error(), segPath) || !strings.Contains(err.Error(), "unsupported format version 2") {
		t.Fatalf("OpenTiered = %v; want an error naming %s and unsupported format version 2", err, segPath)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the failed open changed the data directory: %d files before, %d after", len(before), len(after))
	}
	if err := os.WriteFile(segPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTiered(t, dir, 2, testTierOpts())
	defer re.Close()
	if n := re.NumDocs(); n != 60 {
		t.Fatalf("NumDocs %d after the failed open, want 60", n)
	}
	for i := 0; i < 60; i++ {
		d, err := re.GetByURL(tierURL(5, i))
		if want := fmt.Sprintf("body of document %d seed 5 alpha", i); err != nil || d.Text != want {
			t.Fatalf("document %d after the failed open: %q, %v; want %q", i, d.Text, err, want)
		}
	}
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTieredOrphanCleanup: segment files the manifest doesn't know and WAL
// generations older than the manifest's are deleted at open.
func TestTieredOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 1, testTierOpts())
	fillTier(t, s, 1, 30)
	freezeAll(t, s) // commits manifest at walSeq 2; wal-1 deleted
	s.Close()
	shardDir := filepath.Join(dir, "shard-00")
	orphanSeg := filepath.Join(shardDir, "seg-999999.bsg")
	staleWAL := filepath.Join(shardDir, "wal-000001.log")
	for _, p := range []string{orphanSeg, staleWAL} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := openTiered(t, dir, 1, testTierOpts())
	defer re.Close()
	for _, p := range []string{orphanSeg, staleWAL} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived open", p)
		}
	}
	if re.NumDocs() != 30 {
		t.Fatalf("NumDocs %d after orphan cleanup, want 30", re.NumDocs())
	}
}

// TestAtomicWriteFileFailureKeepsOld: when the tmp file cannot be written,
// the writer the manifest and TIER.json go through reports it, the old file
// stays, and tmp is cleaned up. (A failing fsync, of the file or of its
// directory, needs a filesystem fault seam to provoke.)
func TestAtomicWriteFileFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if err := segment.WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := segment.WriteFileAtomic(path, []byte("new")); err == nil {
		t.Fatal("write through an unwritable tmp reported success")
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("old file after failed write: %q, %v", b, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp left behind: %v", err)
	}
}

// TestTieredShardCountPinned: a data directory cannot be reopened with a
// different shard count (DocIDs encode the layout).
func TestTieredShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 2, testTierOpts())
	s.Close()
	if _, err := OpenTiered(dir, 4, testTierOpts()); err == nil {
		t.Fatal("reopen with different shard count succeeded")
	}
}

// TestTieredDurableDocs: with WALSync on, DurableDocs reaches the flushed
// count, and a crash-reopen recovers at least that many documents.
func TestTieredDurableDocs(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.WALSync = true
	s := openTiered(t, dir, 2, opt)
	fillTier(t, s, 12, 80)
	if d := s.DurableDocs(); d != 80 {
		t.Fatalf("DurableDocs %d after synced flush of 80", d)
	}
	// No Close: simulate SIGKILL.
	re := openTiered(t, dir, 2, opt)
	defer re.Close()
	if re.NumDocs() < 80 {
		t.Fatalf("recovered %d docs, durable promised 80", re.NumDocs())
	}
	if d := re.DurableDocs(); int(d) != re.NumDocs() {
		t.Fatalf("after recovery DurableDocs=%d != NumDocs=%d", d, re.NumDocs())
	}
}

// TestTieredAutoFreeze: crossing the memtable budget freezes automatically
// on the write path and the hot tier shrinks.
func TestTieredAutoFreeze(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.FreezeDocs = 20
	s := openTiered(t, dir, 1, opt)
	defer s.Close()
	fillTier(t, s, 13, 100)
	sh := s.shards[0]
	sh.docMu.RLock()
	segs := len(sh.tier.state.load().segs)
	hot := sh.tier.hotDocs
	sh.docMu.RUnlock()
	if segs == 0 {
		t.Fatal("no automatic freeze despite FreezeDocs=20")
	}
	if hot >= 100 {
		t.Fatalf("hot tier still holds %d docs after auto-freezes", hot)
	}
	if s.NumDocs() != 100 {
		t.Fatalf("NumDocs %d, want 100", s.NumDocs())
	}
}

// TestTieredReopenKeepsTenants: tenant-tagged rows survive a reopen from
// the WAL alone (a crash with everything hot), from segments (every shard
// frozen, clean close) and after compaction. Per-tenant counts, each
// tenant's row of a shared URL, DocIDs, links and redirects all come back,
// and an insert after reopen takes a fresh ID.
func TestTieredReopenKeepsTenants(t *testing.T) {
	opt := testTierOpts()
	opt.CompactFanout = 2
	for _, p := range []int{1, 4} {
		for _, state := range []string{"wal", "segments", "compacted"} {
			label := fmt.Sprintf("p=%d %s", p, state)
			dir := t.TempDir()
			s := openTiered(t, dir, p, opt)
			fillTenants(s, 90)
			if state != "wal" {
				freezeAll(t, s)
			}
			// A second wave, so compaction has two segments per shard to merge.
			for i := 0; i < 24; i++ {
				u := fmt.Sprintf("http://t%d.example/p%d", i%7, i)
				s.Insert(tenantDoc([]string{"", "beta", "gamma"}[i%3], fmt.Sprintf("http://wave2.example/%d", i), map[string]int{"wave": 1}))
				s.AddLink(Link{From: u, To: "http://shared.example/page", Anchor: fmt.Sprintf("a%d", i)})
			}
			s.AddRedirect(Redirect{From: "http://old.example/", To: "http://shared.example/page"})
			if state != "wal" {
				freezeAll(t, s)
			}
			if state == "compacted" {
				compactAll(t, s)
				for i, sh := range s.shards {
					if segs := len(sh.tier.state.load().segs); segs != 1 {
						t.Fatalf("%s: shard %d holds %d segments after compaction, want 1", label, i, segs)
					}
				}
			}
			// Capture the written state before a clean close unmaps segments.
			want, wantLinks, wantRedirs := s.All(), s.Links(), s.Redirects()
			tenantDocs := map[string]int{}
			for _, tn := range []string{"", "beta", "gamma"} {
				tenantDocs[tn] = s.TenantNumDocs(tn)
			}
			if state != "wal" {
				if err := s.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
			}

			re := openTiered(t, dir, p, opt)
			if got := re.NumDocs(); got != len(want) {
				t.Fatalf("%s: %d docs reopened, want %d", label, got, len(want))
			}
			for tn, n := range tenantDocs {
				if g := re.TenantNumDocs(tn); g != n {
					t.Fatalf("%s tenant %q: %d docs reopened as %d", label, tn, n, g)
				}
				d, err := re.GetDoc(tn, "http://shared.example/page")
				if err != nil || d.Tenant != tn {
					t.Fatalf("%s tenant %q: shared row = %+v, %v", label, tn, d, err)
				}
			}
			ids := map[DocID]bool{}
			for _, d := range want {
				rd, err := re.GetDoc(d.Tenant, d.URL)
				if err != nil || rd.ID != d.ID || rd.Tenant != d.Tenant {
					t.Fatalf("%s: doc %q/%s ID %d -> %+v (%v)", label, d.Tenant, d.URL, d.ID, rd, err)
				}
				ids[d.ID] = true
			}
			if !sameLinks(re.Links(), wantLinks) || len(wantLinks) != 24 {
				t.Fatalf("%s: links reopened as %v, want %v", label, re.Links(), wantLinks)
			}
			if rs := re.Redirects(); len(rs) != 1 || len(wantRedirs) != 1 || rs[0] != wantRedirs[0] {
				t.Fatalf("%s: redirects reopened as %+v, want %+v", label, rs, wantRedirs)
			}
			before := re.NumDocs()
			id := re.Insert(tenantDoc("beta", "http://fresh.example/x", map[string]int{"x": 1}))
			if ids[id] || re.NumDocs() != before+1 {
				t.Fatalf("%s: insert after reopen collided (ID %d, %d docs)", label, id, re.NumDocs())
			}
			re.Close()
			if state == "wal" {
				s.Close()
			}
		}
	}
}

// TestLoadErrors: loading a store means opening its data directory, and a
// path that is not a readable one — a regular file such as an old
// single-file database, a corrupt TIER.json, a corrupt shard manifest — is
// an error, never an empty or half-read store.
func TestLoadErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "crawl.db")
	if err := os.WriteFile(file, []byte("a single-file database"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTiered(file, 0, testTierOpts()); err == nil {
		t.Error("a regular file opened as a data directory")
	}

	badLayout := t.TempDir()
	if err := os.WriteFile(filepath.Join(badLayout, "TIER.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTiered(badLayout, 0, testTierOpts()); err == nil {
		t.Error("corrupt TIER.json opened")
	}

	badManifest := t.TempDir()
	s := openTiered(t, badManifest, 2, testTierOpts())
	fillTier(t, s, 4, 20)
	freezeAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.shards[0].tier.manifestPath(), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTiered(badManifest, 2, testTierOpts()); err == nil {
		t.Error("corrupt shard manifest opened")
	}
}

// sameLinks reports whether two link-row multisets are equal.
func sameLinks(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[Link]int{}
	for _, l := range a {
		count[l]++
	}
	for _, l := range b {
		if count[l]--; count[l] < 0 {
			return false
		}
	}
	return true
}

// TestTieredConcurrentChurn: writers, freezes, compactions and readers
// race; run under -race this is the tier's memory-model check. Every read
// must see internally consistent data (no dangling postings, no partially
// hydrated docs).
func TestTieredConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.FreezeDocs = 25
	opt.DisableCompaction = false
	s, err := OpenTiered(dir, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := s.NewWorkspace(8)
			for i := 0; i < 150; i++ {
				u := fmt.Sprintf("http://churn%d.example/%d", g, i)
				w.Add(Document{
					URL:   u,
					Topic: "db",
					Text:  fmt.Sprintf("churn body %d %d", g, i),
					Terms: map[string]int{"alpha": 1, fmt.Sprintf("g%dterm", g): i + 1},
				})
				if i%5 == 0 {
					w.AddLink(Link{From: u, To: "http://churn.example/hub", Anchor: "x"})
				}
			}
			if err := w.Flush(); err != nil {
				t.Errorf("writer %d: %v", g, err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < s.NumShards(); i++ {
				s.FreezeShard(i)
				s.CompactShard(i)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var ids []DocID
				s.VisitPostings("alpha", func(doc DocID, tf int) { ids = append(ids, doc) })
				for _, id := range ids {
					if _, err := s.Get(id); err != nil {
						t.Errorf("dangling posting %d: %v", id, err)
					}
				}
				s.DocFreq("alpha")
				s.NumDocs()
				for _, d := range s.ByTopic("db") {
					if d.URL == "" {
						t.Error("empty doc from ByTopic")
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(stop)
		close(done)
	}()
	wg.Wait()
	<-done
	if err := s.TierErr(); err != nil {
		t.Fatalf("tier error after churn: %v", err)
	}
	if got := s.NumDocs(); got != 3*150 {
		t.Fatalf("NumDocs %d after churn, want %d", got, 3*150)
	}
	// Every posting for every writer's unique terms must resolve.
	for g := 0; g < 3; g++ {
		if df := s.DocFreq(fmt.Sprintf("g%dterm", g)); df != 150 {
			t.Fatalf("writer %d: DocFreq %d, want 150", g, df)
		}
	}
}

// TestTieredFailedFreezeRetainsWALGenerations: a freeze whose segment
// build fails leaves the rotated-out WAL generation as the only durable
// copy of the still-hot documents. A manifest commit that did not bake the
// hot tier (what a background compaction performs) must keep that
// generation — it may only delete generations below baseWalSeq — and a
// crash-reopen must recover every acknowledged document. A later
// successful freeze advances baseWalSeq and then cleans the obsolete
// generations up.
func TestTieredFailedFreezeRetainsWALGenerations(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.WALSync = true
	s := openTiered(t, dir, 1, opt)
	fillTier(t, s, 3, 30)

	// Fail the freeze after its WAL rotation: occupy the segment's tmp
	// path with a directory so segment.Build cannot create its file.
	shardDir := filepath.Join(dir, "shard-00")
	blocker := filepath.Join(shardDir, "seg-000001.bsg.tmp")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.FreezeShard(0); err == nil {
		t.Fatal("freeze with blocked segment path succeeded")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	// Commit the manifest without baking the hot tier, as the background
	// compactor does after a merge.
	sh := s.shards[0]
	sh.tier.mu.Lock()
	err := s.commitManifestLocked(sh)
	sh.tier.mu.Unlock()
	if err != nil {
		t.Fatalf("commit manifest: %v", err)
	}
	gen1 := filepath.Join(shardDir, "wal-000001.log")
	if _, err := os.Stat(gen1); err != nil {
		t.Fatalf("wal generation 1 (only durable copy of 30 docs) gone after manifest commit: %v", err)
	}

	// Crash-reopen (no Close): every acknowledged document recovers.
	re := openTiered(t, dir, 1, opt)
	if re.NumDocs() != 30 {
		t.Fatalf("recovered %d docs after failed freeze + manifest commit, want 30", re.NumDocs())
	}

	// A successful freeze bakes the hot tier; only then do the old
	// generations become deletable.
	freezeAll(t, re)
	for _, g := range []string{gen1, filepath.Join(shardDir, "wal-000002.log")} {
		if _, err := os.Stat(g); !os.IsNotExist(err) {
			t.Fatalf("obsolete generation %s survived a successful freeze", g)
		}
	}
	re.Close()
	re2 := openTiered(t, dir, 1, opt)
	defer re2.Close()
	if re2.NumDocs() != 30 {
		t.Fatalf("recovered %d docs after successful freeze, want 30", re2.NumDocs())
	}
}

// TestTieredFreezeWindowMetaMutation: SetTopic/SetTraining landing between
// a freeze's capture and its publish must survive the next WAL rotation.
// The baked meta predates the mutation, the row was not yet cold when the
// mutation looked for an override to record, and the mutation's WAL record
// lives in the generation the next freeze deletes — publishFreeze must
// diff the live row against the frozen meta and record the override.
func TestTieredFreezeWindowMetaMutation(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.WALSync = true
	s := openTiered(t, dir, 1, opt)
	fillTier(t, s, 5, 10)
	victim := tierURL(5, 1) // doc 1: IsTraining starts false

	freezePrePublishHook = func() {
		freezePrePublishHook = nil
		if err := s.SetTopic(victim, "window-topic", 0.42); err != nil {
			t.Errorf("SetTopic in freeze window: %v", err)
		}
		if err := s.SetTraining(victim, true); err != nil {
			t.Errorf("SetTraining in freeze window: %v", err)
		}
	}
	defer func() { freezePrePublishHook = nil }()
	freezeAll(t, s)

	// The next freeze rotates again and deletes the generation holding the
	// mutation's WAL records; only a manifest override keeps them durable.
	fillTier(t, s, 6, 5)
	freezeAll(t, s)
	s.Close()

	re := openTiered(t, dir, 1, opt)
	defer re.Close()
	d, err := re.GetByURL(victim)
	if err != nil {
		t.Fatalf("GetByURL(%s): %v", victim, err)
	}
	if d.Topic != "window-topic" || d.Confidence != 0.42 {
		t.Fatalf("topic mutated in freeze window lost: got %q/%v, want window-topic/0.42", d.Topic, d.Confidence)
	}
	if !d.IsTraining {
		t.Fatal("training flag mutated in freeze window lost")
	}
}

// TestOpenDefaultsToEightShards: 0 shards means 8 for an in-memory store
// as for a tiered one — the default every -store-shards flag promises.
func TestOpenDefaultsToEightShards(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		st, err := Open(dir, 0, TierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := st.NumShards(); n != 8 {
			t.Errorf("dir %q: %d shards, want 8", dir, n)
		}
		st.Close()
	}
}
