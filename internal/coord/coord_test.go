package coord

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// Coordinator-level units: exact integer df merge, the score/URL
// tie-break in the final merge, partial-gather degradation, version
// conflict recovery, and the ingest router's routing and acks.

func docWith(url string, terms map[string]int, conf float64) store.Document {
	t := make(map[string]int, len(terms))
	for k, v := range terms {
		t[k] = v
	}
	return store.Document{URL: url, Title: url, Topic: "ROOT/db", Confidence: conf, Terms: t}
}

// TestSyncMergesDFExactly pins the integer df merge: overlapping
// vocabularies sum, the global idf is log(1+N/df) over the summed
// integers, and the total document count spans the fleet.
func TestSyncMergesDFExactly(t *testing.T) {
	s1, s2 := store.NewSharded(1), store.NewSharded(1)
	s1.Insert(docWith("http://a.example/1", map[string]int{"databas": 2, "log": 1}, 0.5))
	s1.Insert(docWith("http://a.example/2", map[string]int{"databas": 1}, 0.5))
	s2.Insert(docWith("http://b.example/1", map[string]int{"databas": 3, "recoveri": 1}, 0.5))
	f := startFleet(t, []*store.Store{s1, s2})
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.coord.TotalDocs(); got != 3 {
		t.Fatalf("TotalDocs = %d, want 3", got)
	}
	// df(databas)=3 across the fleet, df(log)=1, df(recoveri)=1.
	idf := f.coord.idf
	for term, df := range map[string]int{"databas": 3, "log": 1, "recoveri": 1} {
		want := math.Log(1 + 3/float64(df))
		if got := idf.IDF(term); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("idf(%s) = %v, want exactly %v", term, got, want)
		}
	}
	if f.coord.Version() == "" {
		t.Fatal("sync installed no version")
	}
}

// TestMergeTieBreak pins the final merge's total order: equal scores
// order by URL ascending, across shard boundaries.
func TestMergeTieBreak(t *testing.T) {
	// Identical term vectors and confidences → identical scores; the URLs
	// route to different partitions of a 2-server fleet.
	urls := []string{
		"http://tie.example/a", "http://tie.example/b", "http://tie.example/c",
		"http://tie.example/d", "http://tie.example/e", "http://tie.example/f",
	}
	s1, s2 := store.NewSharded(1), store.NewSharded(1)
	parts := []*store.Store{s1, s2}
	routed := map[int]bool{}
	for _, u := range urls {
		i := store.RouteURL(u, 2)
		routed[i] = true
		parts[i].Insert(docWith(u, map[string]int{"databas": 2}, 0.5))
	}
	if len(routed) != 2 {
		t.Fatal("tie URLs all routed to one partition — weak test")
	}
	f := startFleet(t, parts)
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := f.coord.Search(context.Background(), search.Query{Text: "database", Limit: len(urls)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(urls) {
		t.Fatalf("got %d hits, want %d", len(res.Hits), len(urls))
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i-1].Score == res.Hits[i].Score && res.Hits[i-1].URL > res.Hits[i].URL {
			t.Fatalf("tie-break violated at %d: %q before %q", i, res.Hits[i-1].URL, res.Hits[i].URL)
		}
	}
}

// TestPartialGatherDegrades kills one shard server of two and checks the
// coordinator answers with the surviving partition's hits, Degraded set,
// and the dead address listed — never an error.
func TestPartialGatherDegrades(t *testing.T) {
	single, fleets := buildDistCorpus(3, 120, []int{2})
	_ = single
	f := startFleet(t, fleets[2])
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadAddr := f.servers[1].URL
	f.servers[1].Close()

	res, err := f.coord.Search(context.Background(), search.Query{Text: "recovery transaction"})
	if err != nil {
		t.Fatalf("partial gather errored instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("one dead shard of two not reported as degraded")
	}
	if len(res.Missing) != 1 || res.Missing[0] != deadAddr {
		t.Fatalf("Missing = %v, want [%s]", res.Missing, deadAddr)
	}
	// Every returned hit must live on the surviving partition.
	for _, h := range res.Hits {
		if store.RouteURL(h.URL, 2) != 0 {
			t.Fatalf("hit %q belongs to the dead partition", h.URL)
		}
	}
}

// TestAllShardsDownIs503 checks the no-partial-result case surfaces as
// ErrAllShardsDown (the HTTP layer's 503), not a panic or empty 200.
func TestAllShardsDownIs503(t *testing.T) {
	s1 := store.NewSharded(1)
	s1.Insert(docWith("http://x.example/", map[string]int{"databas": 1}, 0.5))
	f := startFleet(t, []*store.Store{s1})
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.close()
	_, err := f.coord.Search(context.Background(), search.Query{Text: "database"})
	if !errors.Is(err, ErrAllShardsDown) {
		t.Fatalf("got %v, want ErrAllShardsDown", err)
	}
}

// TestConflictTriggersResync simulates a shard restart (fresh partition,
// no installed version) and checks one query-triggered resync recovers:
// the stale coordinator's first attempt conflicts, the retry succeeds.
func TestConflictTriggersResync(t *testing.T) {
	s1 := store.NewSharded(1)
	s1.Insert(docWith("http://x.example/1", map[string]int{"databas": 2}, 0.5))
	s1.Insert(docWith("http://x.example/2", map[string]int{"databas": 1, "log": 2}, 0.7))

	// A swappable handler stands in for a process restart: same address,
	// fresh rpc.Server state.
	var cur http.Handler
	srv := rpc.NewServer(s1)
	srv.SetReady(true)
	cur = srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c, err := New([]string{hs.URL}, Options{HedgeAfter: -1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	v1 := c.Version()

	// "Restart": a new server over the same store has no installed view.
	srv2 := rpc.NewServer(s1)
	srv2.SetReady(true)
	cur = srv2.Handler()

	res, err := c.Search(context.Background(), search.Query{Text: "database"})
	if err != nil {
		t.Fatalf("search after shard restart: %v", err)
	}
	if res.Degraded {
		t.Fatal("resync path reported degraded")
	}
	if len(res.Hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(res.Hits))
	}
	if c.Version() == v1 {
		t.Fatal("conflict did not advance the stats version")
	}
}

// TestSecondCoordinatorIncarnationRefreshesView is the
// coordinator-restart regression: coordinator A syncs, new documents
// land on the shards, then a fresh coordinator B (reset sync counter —
// the rolling-restart and re-crawl workflows) syncs over the same fleet.
// B's pushes must install the fresh corpus state — a version-string
// collision with A's sync must never be swallowed as a duplicate, or
// queries silently miss everything ingested since A's sync.
func TestSecondCoordinatorIncarnationRefreshesView(t *testing.T) {
	s1 := store.NewSharded(1)
	s1.Insert(docWith("http://inc.example/1", map[string]int{"databas": 2}, 0.5))
	f := startFleet(t, []*store.Store{s1})
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	vA := f.coord.Version()

	// Documents ingested after A's sync (a re-crawl, a late flush).
	s1.Insert(docWith("http://inc.example/2", map[string]int{"databas": 1}, 0.5))

	// "Coordinator restart": a fresh incarnation over the same fleet.
	b, err := New(f.coord.Addrs(), Options{HedgeAfter: -1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.Version() == vA {
		t.Fatalf("incarnation B re-emitted A's version %q", vA)
	}
	if got := b.TotalDocs(); got != 2 {
		t.Fatalf("B.TotalDocs = %d, want 2", got)
	}
	res, err := b.Search(context.Background(), search.Query{Text: "database"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("healthy fleet answered degraded")
	}
	if len(res.Hits) != 2 {
		t.Fatalf("B sees %d hits, want 2 — shard kept serving A's stale view", len(res.Hits))
	}
}

// TestFlushReportsErrorsFromItsOwnDrain checks Flush (and therefore
// Close's final Flush) reports delivery errors from the batches it
// drained, not just errors left over from before it ran — a failed final
// batch must not produce a clean ingest summary.
func TestFlushReportsErrorsFromItsOwnDrain(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"v":1,"code":"internal","message":"boom"}`, http.StatusInternalServerError)
	}))
	defer hs.Close()

	r := NewRouter([]*rpc.Client{rpc.NewClient(hs.URL, rpc.ClientOptions{})}, RouterOptions{BatchRows: 100})
	// One row, below BatchRows: the batch is enqueued by Flush itself, so
	// its delivery error exists only after Flush's drain.
	r.PutDoc(docWith("http://flush.example/a", map[string]int{"databas": 1}, 0.4))
	if err := r.Flush(); err == nil {
		t.Fatal("Flush returned nil despite its own batch failing delivery")
	}
	// The error was consumed; a drain with nothing new to deliver is clean.
	if err := r.Close(); err != nil {
		t.Fatalf("Close after reported error: %v", err)
	}
}

// TestRouterRoutesAndAcks drives the ingest router against a live fleet
// and checks rows land on the partition store.RouteURL names and acks
// report the delivered counts.
func TestRouterRoutesAndAcks(t *testing.T) {
	s1, s2 := store.NewSharded(1), store.NewSharded(1)
	parts := []*store.Store{s1, s2}
	f := startFleet(t, parts)
	defer f.close()

	r := NewRouter(f.coord.Clients(), RouterOptions{BatchRows: 4})
	urls := []string{
		"http://r.example/a", "http://r.example/b", "http://r.example/c",
		"http://r.example/d", "http://r.example/e",
	}
	for _, u := range urls {
		r.PutDoc(docWith(u, map[string]int{"databas": 1}, 0.4))
		r.PutLink(store.Link{From: u, To: "http://r.example/a", Anchor: "x"})
	}
	if err := r.Close(); err != nil {
		t.Fatalf("router close: %v", err)
	}

	for _, u := range urls {
		want := store.RouteURL(u, 2)
		if _, err := parts[want].GetByURL(u); err != nil {
			t.Fatalf("doc %q missing from partition %d: %v", u, want, err)
		}
		if parts[1-want].Contains(u) {
			t.Fatalf("doc %q duplicated onto partition %d", u, 1-want)
		}
	}
	total := 0
	for _, a := range r.Acks() {
		if a.DroppedRows != 0 {
			t.Fatalf("healthy fleet dropped %d rows at %s", a.DroppedRows, a.Addr)
		}
		total += a.NumDocs
	}
	if total != len(urls) {
		t.Fatalf("acked %d docs across the fleet, want %d", total, len(urls))
	}
}

// TestRouterDropsForDeadShardWithoutStalling checks a dead partition
// slows nothing down: rows for it are dropped and counted, rows for the
// live partition still deliver, and Flush returns the delivery error.
func TestRouterDropsForDeadShardWithoutStalling(t *testing.T) {
	s1, s2 := store.NewSharded(1), store.NewSharded(1)
	f := startFleet(t, []*store.Store{s1, s2})
	defer f.close()
	f.servers[1].Close() // partition 1 is dead from the start

	r := NewRouter(f.coord.Clients(), RouterOptions{BatchRows: 2, QueueLen: 1})
	delivered, dropped := 0, 0
	for i := 0; i < 40; i++ {
		u := "http://dead.example/doc" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		if store.RouteURL(u, 2) == 0 {
			delivered++
		} else {
			dropped++
		}
		r.PutDoc(docWith(u, map[string]int{"databas": 1}, 0.4))
	}
	if delivered == 0 || dropped == 0 {
		t.Fatal("URL mix routed to one partition only — weak test")
	}
	_ = r.Close() // delivery errors are expected; drops are the signal
	acks := r.Acks()
	if acks[0].NumDocs == 0 {
		t.Fatal("live partition received nothing")
	}
	if acks[1].DroppedRows == 0 {
		t.Fatal("dead partition recorded no dropped rows")
	}
	if acks[1].NumDocs != 0 {
		t.Fatalf("dead partition acked %d docs", acks[1].NumDocs)
	}
}
