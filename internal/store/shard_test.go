package store

import (
	"fmt"
	"sort"
	"testing"
)

func shardDoc(url, topic string, conf float64, terms map[string]int) Document {
	return Document{URL: url, Topic: topic, Confidence: conf, Terms: terms}
}

func fillSharded(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.Insert(shardDoc(
			fmt.Sprintf("http://h%d.example/p%d", i%17, i),
			[]string{"db", "ir", "web"}[i%3],
			float64(i%90)/100,
			map[string]int{"alpha": 1 + i%3, fmt.Sprintf("t%d", i%29): 2},
		))
		if i%4 == 0 {
			s.AddLink(Link{From: fmt.Sprintf("http://h%d.example/p%d", i%17, i), To: fmt.Sprintf("http://h%d.example/p%d", (i+1)%17, i+1), Anchor: "a"})
		}
		if i%9 == 0 {
			s.AddRedirect(Redirect{From: fmt.Sprintf("http://h%d.example/r%d", i%17, i), To: "http://x.example/"})
		}
	}
}

// TestShardRouting pins the DocID encoding contract: the shard index lives
// in the low ShardBits of every assigned ID and matches the URL hash route.
func TestShardRouting(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		s := NewSharded(p)
		if s.NumShards() != p {
			t.Fatalf("NumShards(%d) = %d", p, s.NumShards())
		}
		for i := 0; i < 200; i++ {
			u := fmt.Sprintf("http://host%d.example/doc%d", i%13, i)
			id := s.Insert(shardDoc(u, "db", 0.5, map[string]int{"x": 1}))
			if got, want := s.ShardOf(id), s.ShardForURL(u); got != want {
				t.Fatalf("p=%d: doc %s got shard %d from ID, %d from URL", p, u, got, want)
			}
			d, err := s.Get(id)
			if err != nil || d.URL != u {
				t.Fatalf("p=%d: Get(%d) = %+v, %v", p, id, d, err)
			}
		}
	}
}

// TestShardedPowerOfTwoClamp: shard counts round up to powers of two and
// clamp to [1, MaxShards].
func TestShardedPowerOfTwoClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {63, 64}, {1000, 64},
	} {
		if got := NewSharded(tc.in).NumShards(); got != tc.want {
			t.Errorf("NewSharded(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedReadsMatchSingleShard: every merged read (NumDocs, All,
// Topics, ByTopic, Postings/DocFreq, Links, Redirects) agrees with the single-shard store over the same inserts.
func TestShardedReadsMatchSingleShard(t *testing.T) {
	base := NewSharded(1)
	fillSharded(base, 300)
	for _, p := range []int{2, 8} {
		s := NewSharded(p)
		fillSharded(s, 300)
		if s.NumDocs() != base.NumDocs() {
			t.Fatalf("p=%d: NumDocs %d vs %d", p, s.NumDocs(), base.NumDocs())
		}
		urls := func(ds []Document) []string {
			out := make([]string, len(ds))
			for i, d := range ds {
				out[i] = d.URL
			}
			sort.Strings(out)
			return out
		}
		if got, want := urls(s.All()), urls(base.All()); !equalStrings(got, want) {
			t.Fatalf("p=%d: All() mismatch", p)
		}
		if got, want := s.Topics(), base.Topics(); !equalStrings(got, want) {
			t.Fatalf("p=%d: Topics %v vs %v", p, got, want)
		}
		// ByTopic order (confidence desc, URL tie-break) must be identical
		// across shardings, not just set-equal.
		for _, topic := range base.Topics() {
			g, w := s.ByTopic(topic), base.ByTopic(topic)
			if len(g) != len(w) {
				t.Fatalf("p=%d: ByTopic(%s) sizes %d vs %d", p, topic, len(g), len(w))
			}
			for i := range g {
				if g[i].URL != w[i].URL || g[i].Confidence != w[i].Confidence {
					t.Fatalf("p=%d: ByTopic(%s)[%d] = %s/%v vs %s/%v", p, topic, i, g[i].URL, g[i].Confidence, w[i].URL, w[i].Confidence)
				}
			}
		}
		if got, want := s.DocFreq("alpha"), base.DocFreq("alpha"); got != want {
			t.Fatalf("p=%d: DocFreq %d vs %d", p, got, want)
		}
		n := 0
		s.VisitPostings("alpha", func(DocID, int) { n++ })
		if n != s.DocFreq("alpha") {
			t.Fatalf("p=%d: VisitPostings/DocFreq disagree", p)
		}
		if len(s.Links()) != len(base.Links()) || len(s.Redirects()) != len(base.Redirects()) {
			t.Fatalf("p=%d: link/redirect counts differ", p)
		}
	}
}

// TestShardEpochsFeedStoreEpoch: a write advances exactly its shard's
// epoch, and Store.Epoch is the sum.
func TestShardEpochsFeedStoreEpoch(t *testing.T) {
	s := NewSharded(4)
	u := "http://epoch.example/d1"
	si := s.ShardForURL(u)
	before := make([]int64, s.NumShards())
	for i := range before {
		before[i] = s.ShardEpoch(i)
	}
	s.Insert(shardDoc(u, "db", 0.5, map[string]int{"x": 1}))
	var sum int64
	for i := 0; i < s.NumShards(); i++ {
		e := s.ShardEpoch(i)
		sum += e
		if i == si {
			if e <= before[i] {
				t.Errorf("owning shard %d epoch did not advance", i)
			}
		} else if e != before[i] {
			t.Errorf("shard %d epoch moved on a foreign write", i)
		}
	}
	if s.Epoch() != sum {
		t.Errorf("Epoch() = %d, want sum %d", s.Epoch(), sum)
	}
}

// TestShardedVisitors: VisitDocs and VisitLinks stream every row and stop
// early when fn returns false.
func TestShardedVisitors(t *testing.T) {
	s := NewSharded(4)
	fillSharded(s, 120)
	seen := 0
	s.VisitDocs(func(d Document) bool { seen++; return true })
	if seen != s.NumDocs() {
		t.Errorf("VisitDocs saw %d of %d", seen, s.NumDocs())
	}
	seen = 0
	s.VisitDocs(func(d Document) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Errorf("VisitDocs early stop saw %d", seen)
	}
	links := 0
	s.VisitLinks(func(l Link) bool { links++; return true })
	if links != len(s.Links()) {
		t.Errorf("VisitLinks saw %d of %d", links, len(s.Links()))
	}
}

// TestShardedWorkspaceFlush: workspace rows land on their owning shards
// and the merged view stays consistent with direct inserts.
func TestShardedWorkspaceFlush(t *testing.T) {
	s := NewSharded(8)
	w := s.NewWorkspace(16)
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("http://ws%d.example/p%d", i%11, i)
		w.Add(shardDoc(u, "db", 0.5, map[string]int{"ws": 1}))
		w.AddLink(Link{From: u, To: fmt.Sprintf("http://ws%d.example/p%d", (i+3)%11, i+1), Anchor: "x"})
	}
	w.Flush()
	if s.NumDocs() != 100 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	if got := s.DocFreq("ws"); got != 100 {
		t.Fatalf("DocFreq(ws) = %d", got)
	}
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("http://ws%d.example/p%d", i%11, i)
		d, err := s.GetByURL(u)
		if err != nil {
			t.Fatalf("GetByURL(%s): %v", u, err)
		}
		if s.ShardOf(d.ID) != s.ShardForURL(u) {
			t.Fatalf("doc %s on wrong shard", u)
		}
		if len(s.Successors(u)) != 1 {
			t.Fatalf("Successors(%s) = %v", u, s.Successors(u))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
