package search

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// The carry contract: a shard snap built over an older snap of the same
// shard is field-for-field the snap a fresh build produces, whatever
// happened in between — tier moves, deletes, recrawls, compaction — and a rebuild materializes only the rows the store gained.

// sameSnap requires carried to equal fresh in every field a query reads.
func sameSnap(t *testing.T, label string, fresh, carried *shardSnap) {
	t.Helper()
	for _, f := range []struct {
		name      string
		want, got interface{}
	}{
		{"epoch", fresh.epoch, carried.epoch},
		{"numDocs", fresh.numDocs, carried.numDocs},
		{"docs", fresh.docs, carried.docs},
		{"docOff", fresh.docOff, carried.docOff},
		{"termIDs", fresh.termIDs, carried.termIDs},
		{"logtf", fresh.logtf, carried.logtf},
		{"terms", fresh.terms, carried.terms},
		{"df", fresh.df, carried.df},
		{"tids", fresh.tids, carried.tids},
		{"postOff", fresh.postOff, carried.postOff},
		{"postSeq", fresh.postSeq, carried.postSeq},
		{"postW", fresh.postW, carried.postW},
	} {
		if !reflect.DeepEqual(f.want, f.got) {
			t.Fatalf("%s: carried snap differs from a fresh build in %s", label, f.name)
		}
	}
}

// carryAll rebuilds every shard of st over bases (nil: fresh builds),
// checks each against a fresh build, and returns the carried snaps.
func carryAll(t *testing.T, label string, st *store.Store, bases []*shardSnap) []*shardSnap {
	t.Helper()
	carried0 := mShardDocsCarried.Value()
	out := make([]*shardSnap, st.NumShards())
	for i := range out {
		var base *shardSnap
		if i < len(bases) {
			base = bases[i]
		}
		out[i] = buildShardSnap(st, i, base)
		sameSnap(t, fmt.Sprintf("%s shard %d", label, i), buildShardSnap(st, i, nil), out[i])
	}
	if bases != nil && mShardDocsCarried.Value() == carried0 {
		t.Fatalf("%s: no row was carried — weak test", label)
	}
	return out
}

// storedURLs returns st's document URLs, sorted.
func storedURLs(st *store.Store) []string {
	var urls []string
	st.VisitDocs(func(d store.Document) bool {
		urls = append(urls, d.URL)
		return true
	})
	sort.Strings(urls)
	return urls
}

// urlInShard returns the first URL of the form prefix+N that routes to
// shard si.
func urlInShard(st *store.Store, prefix string, si int) string {
	for i := 0; ; i++ {
		if u := fmt.Sprintf("%s%d", prefix, i); st.ShardForURL(u) == si {
			return u
		}
	}
}

// TestCarriedSnapMatchesFreshBuild walks one store per layout through every
// kind of change a carried row can see between two builds and requires the
// carried snap to be the fresh one, field for field.
func TestCarriedSnapMatchesFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *store.Store
	}{
		{"untiered P=4", store.NewSharded(4)},
		{"tiered P=1", openSearchTiered(t, 1)},
		{"tiered P=8", openSearchTiered(t, 8)},
	} {
		st := tc.st
		at := func(step string) string { return tc.name + " " + step }

		fillTierWave(13, 0, 160, st)
		snaps := carryAll(t, at("all-hot"), st, nil)
		urls := storedURLs(st)

		// The base holds hot rows; the store now holds them frozen.
		freezeAllShards(t, st)
		fillTierWave(13, 1, 40, st)
		snaps = carryAll(t, at("hot base, frozen rows"), st, snaps)

		for _, u := range urls[:6] {
			st.Delete(u)
		}
		snaps = carryAll(t, at("carried rows deleted"), st, snaps)

		// A recrawl: same URL, new ID; the old sequence becomes a hole.
		st.Insert(store.Document{
			URL: urls[10], Title: "recrawled", Text: "recovery transaction log rewritten",
			Topic: "ROOT/db", Confidence: 0.5, Terms: map[string]int{"recoveri": 3, "log": 1, "rewritten": 2},
		})
		snaps = carryAll(t, at("carried URL recrawled"), st, snaps)

		// Pile up segments, compact them, and rebuild over a base from
		// before all of it.
		for wave := 2; wave <= 4; wave++ {
			freezeAllShards(t, st)
			fillTierWave(13, wave, 24, st)
		}
		freezeAllShards(t, st)
		compactAllShards(t, st)
		snaps = carryAll(t, at("compacted"), st, snaps)

		// A base two writes old.
		fillTierWave(13, 5, 16, st)
		st.Delete(urls[30])
		carryAll(t, at("base two writes old"), st, snaps)
	}
}

// TestPartitionStatsCarriesNewestSnap: Partition.Stats with both an
// installed view (cur) and a newer pinned snapshot (pend) rebuilds a dirty
// shard over the newer one — only the row written since it is read.
func TestPartitionStatsCarriesNewestSnap(t *testing.T) {
	st := openSearchTiered(t, 4)
	fillTierWave(19, 0, 120, st)
	freezeAllShards(t, st)
	p := NewPartition(st)
	if err := pushOwnStats(p, "g1", p.Stats()); err != nil {
		t.Fatal(err)
	}
	doc := func(url string) store.Document {
		return store.Document{URL: url, Title: url, Text: "database recovery", Topic: "ROOT/db",
			Terms: map[string]int{"databas": 2, "recoveri": 1}}
	}
	st.Insert(doc(urlInShard(st, "http://pend.example/a", 2)))
	p.Stats() // pend: shard 2 rebuilt over cur
	st.Insert(doc(urlInShard(st, "http://pend.example/b", 2)))

	rebuilt0, carried0 := mShardDocsRebuilt.Value(), mShardDocsCarried.Value()
	p.Stats() // cur predates both writes, pend only the second
	if got := mShardDocsRebuilt.Value() - rebuilt0; got != 1 {
		t.Errorf("Stats rebuilt %d rows, want 1 (the row written since the pinned snapshot)", got)
	}
	if got, want := mShardDocsCarried.Value()-carried0, int64(len(st.ShardDocs(2))-1); got != want {
		t.Errorf("Stats carried %d rows, want %d", got, want)
	}
	for i, sn := range p.pend.snaps {
		sameSnap(t, fmt.Sprintf("Partition.Stats shard %d", i), buildShardSnap(st, i, nil), sn)
	}
}

// TestFlushRebuildReadsOnlyNewRows: over an all-frozen store, a 32-document
// flush that dirties every shard materializes exactly the 32 new rows,
// carries every other one, and reads no cold payload.
func TestFlushRebuildReadsOnlyNewRows(t *testing.T) {
	st := openSearchTiered(t, 8)
	fillTierWave(17, 0, 240, st)
	freezeAllShards(t, st)
	e := New(st)
	e.Search(Query{Text: "database"})
	corpus := int64(st.NumDocs())

	reads := metrics.NewCounter("segment_cold_payload_reads_total")
	rebuilt0, carried0, reads0 := mShardDocsRebuilt.Value(), mShardDocsCarried.Value(), reads.Value()
	ws := st.NewWorkspace(1000)
	for si := 0; si < st.NumShards(); si++ {
		for k := 0; k < 4; k++ {
			u := urlInShard(st, fmt.Sprintf("http://flush.example/s%dd%d-", si, k), si)
			ws.Add(store.Document{URL: u, Title: u, Text: "database flush", Topic: "ROOT/db",
				Terms: map[string]int{"databas": 1 + k, "flush": 1}})
		}
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(e.Search(Query{Text: "database"})) == 0 {
		t.Fatal("no hits after the flush — weak test")
	}
	if got := mShardDocsRebuilt.Value() - rebuilt0; got != 32 {
		t.Errorf("docs rebuilt = %d, want 32 (the flushed rows)", got)
	}
	if got := mShardDocsCarried.Value() - carried0; got != corpus {
		t.Errorf("docs carried = %d, want %d (the previous corpus)", got, corpus)
	}
	if got := reads.Value() - reads0; got != 0 {
		t.Errorf("the rebuild read %d cold payloads, want 0", got)
	}
}

// TestStemCacheSurvivesRebuild: a phrase query over an all-frozen store
// reads bodies once; after a write to every shard the same phrase query
// reads none — carried rows keep their cached stems.
func TestStemCacheSurvivesRebuild(t *testing.T) {
	st := openSearchTiered(t, 4)
	fillTierWave(23, 0, 200, st)
	freezeAllShards(t, st)
	e := New(st)
	e.Search(Query{Text: "database"}) // build the snapshot

	reads := metrics.NewCounter("segment_cold_payload_reads_total")
	q := Query{Text: `"recovery transaction" database`}
	before := reads.Value()
	if len(e.Search(q)) == 0 {
		t.Fatal("phrase query returned nothing — weak test")
	}
	after := reads.Value()
	if after == before {
		t.Fatal("phrase filtering over cold rows read no body — oracle is dead")
	}
	for si := 0; si < st.NumShards(); si++ {
		u := urlInShard(st, "http://stems.example/", si)
		st.Insert(store.Document{URL: u, Title: u, Text: "recovery transaction database", Topic: "ROOT/db",
			Terms: map[string]int{"recoveri": 1, "transact": 1, "databas": 1}})
	}
	if len(e.Search(q)) == 0 {
		t.Fatal("phrase query returned nothing after the writes")
	}
	if got := reads.Value() - after; got != 0 {
		t.Errorf("rebuild + phrase query read %d cold payloads, want 0", got)
	}
}
