package search

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
)

// Partition-level units for the coordinator handshake: the pin token
// keying SetGlobal to the Stats snapshot it was merged from, and the
// duplicate-push test that must not swallow a colliding version string
// from a different coordinator incarnation.

func distribDoc(url string, terms map[string]int) store.Document {
	t := make(map[string]int, len(terms))
	for k, v := range terms {
		t[k] = v
	}
	return store.Document{URL: url, Title: url, Topic: "ROOT/db", Confidence: 0.5, Terms: t}
}

// pushOwnStats installs st's own statistics as the global view — the
// single-partition fleet case, where local df is global df.
func pushOwnStats(p *Partition, version string, st PartitionStats) error {
	return p.SetGlobal(version, st.Pin, st.NumDocs, st.Terms, st.DF)
}

// countPlan is a minimal plan touching one term; Candidates in the Score
// answer then counts the documents containing it in the installed view.
func countPlan(term string) *Plan {
	return &Plan{
		Terms:   []PlanTerm{{Term: term, W: 1, IDF: 1}},
		QNorm:   1,
		Uniq:    1,
		Limit:   10,
		Weights: DefaultWeights(),
	}
}

// TestSetGlobalWithoutStats pins the ErrNoStats guard: a push with no
// pinned snapshot has nothing sound to build a view from.
func TestSetGlobalWithoutStats(t *testing.T) {
	p := NewPartition(store.NewSharded(1))
	if err := p.SetGlobal("gX", "pin1", 1, []string{"databas"}, []int{1}); !errors.Is(err, ErrNoStats) {
		t.Fatalf("got %v, want ErrNoStats", err)
	}
}

// TestSetGlobalRequiresMatchingPin checks a push echoing a superseded pin
// is rejected: a newer Stats call (this coordinator's or another's)
// replaced the snapshot the push's merged df was computed from, so
// installing it would skew norms relative to the advertised stats.
func TestSetGlobalRequiresMatchingPin(t *testing.T) {
	st := store.NewSharded(1)
	st.Insert(distribDoc("http://pin.example/1", map[string]int{"databas": 2}))
	p := NewPartition(st)

	st1 := p.Stats()
	st2 := p.Stats()
	if st1.Pin == st2.Pin {
		t.Fatalf("two Stats calls returned the same pin %q", st1.Pin)
	}
	if err := pushOwnStats(p, "gA", st1); !errors.Is(err, ErrPinMismatch) {
		t.Fatalf("stale pin push: got %v, want ErrPinMismatch", err)
	}
	if p.Version() != "" {
		t.Fatalf("rejected push installed version %q", p.Version())
	}
	if err := pushOwnStats(p, "gA", st2); err != nil {
		t.Fatalf("current pin push: %v", err)
	}
	if p.Version() != "gA" {
		t.Fatalf("installed version %q, want gA", p.Version())
	}
}

// TestSetGlobalDuplicatePushIsNoop checks a retried push (same version,
// same pin, same totals) does not rebuild the view.
func TestSetGlobalDuplicatePushIsNoop(t *testing.T) {
	st := store.NewSharded(1)
	st.Insert(distribDoc("http://dup.example/1", map[string]int{"databas": 1}))
	p := NewPartition(st)

	stats := p.Stats()
	if err := pushOwnStats(p, "gA", stats); err != nil {
		t.Fatal(err)
	}
	installed := p.cur.Load()
	if err := pushOwnStats(p, "gA", stats); err != nil {
		t.Fatalf("duplicate push: %v", err)
	}
	if p.cur.Load() != installed {
		t.Fatal("duplicate push rebuilt the installed view")
	}
}

// TestSetGlobalVersionCollisionInstallsFreshView is the coordinator-restart
// regression: a second coordinator incarnation re-emitting an
// already-installed version string ("g1" again, from a reset counter) with
// a different corpus state must install the fresh view, not be swallowed
// as a duplicate — the stale view is missing every document ingested since
// the original sync.
func TestSetGlobalVersionCollisionInstallsFreshView(t *testing.T) {
	st := store.NewSharded(1)
	st.Insert(distribDoc("http://col.example/1", map[string]int{"databas": 1}))
	p := NewPartition(st)

	if err := pushOwnStats(p, "g1", p.Stats()); err != nil {
		t.Fatal(err)
	}
	stats, err := p.Score("g1", countPlan("databas"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 1 {
		t.Fatalf("initial view sees %d candidates, want 1", stats.Candidates)
	}

	// New documents land, then a restarted coordinator syncs: fresh stats
	// pull, same version string, different totals.
	st.Insert(distribDoc("http://col.example/2", map[string]int{"databas": 3}))
	if err := pushOwnStats(p, "g1", p.Stats()); err != nil {
		t.Fatalf("colliding-version push: %v", err)
	}
	stats, err = p.Score("g1", countPlan("databas"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 2 {
		t.Fatalf("post-collision view sees %d candidates, want 2 — stale view survived the push", stats.Candidates)
	}
}

// TestSetAuthRefusesOutOfRange: authority scores are an L2-normalized
// HITS vector, and the skyband's pruning relies on each lying in
// [0, UnitBound]; anything else is refused before it is installed. A
// later push for the same version replaces the scores — the coordinator
// retrying a round that missed some shard's links.
func TestSetAuthRefusesOutOfRange(t *testing.T) {
	st := store.NewSharded(1)
	st.Insert(distribDoc("http://auth.example/1", map[string]int{"databas": 1}))
	p := NewPartition(st)
	if err := pushOwnStats(p, "gA", p.Stats()); err != nil {
		t.Fatal(err)
	}
	urls := []string{"http://auth.example/1"}
	for _, x := range []float64{-0x1p-1074, math.Nextafter(UnitBound, 2), 2, math.Inf(1), math.NaN()} {
		if err := p.SetAuth("gA", urls, []float64{x}); !errors.Is(err, ErrBadAuthority) {
			t.Fatalf("score %v: got %v, want ErrBadAuthority", x, err)
		}
	}
	plan := countPlan("databas")
	plan.Weights = Weights{Cosine: 1, Authority: 1}
	if _, err := p.Search("gA", plan); !errors.Is(err, ErrAuthNotReady) {
		t.Fatalf("refused pushes installed authority: Search got %v", err)
	}
	for _, x := range []float64{UnitBound, 0.25} {
		if err := p.SetAuth("gA", urls, []float64{x}); err != nil {
			t.Fatalf("score %v: %v", x, err)
		}
		sb, err := p.Search("gA", plan)
		if err != nil {
			t.Fatal(err)
		}
		if sb.MaxAuth != x || len(sb.Auth) != 1 || sb.Auth[0] != x {
			t.Fatalf("after pushing %v: max %v, rows %v", x, sb.MaxAuth, sb.Auth)
		}
	}
}

// TestStatsReportsMaxConf: Stats carries the largest confidence of the
// pinned documents, which the coordinator folds into its plans' bound.
func TestStatsReportsMaxConf(t *testing.T) {
	st := store.NewSharded(2)
	for i, c := range []float64{0.25, 0.75, -3} {
		d := distribDoc(fmt.Sprintf("http://conf.example/%d", i), map[string]int{"databas": 1})
		d.Confidence = c
		st.Insert(d)
	}
	if got := NewPartition(st).Stats().MaxConf; got != 0.75 {
		t.Fatalf("MaxConf %v, want 0.75", got)
	}
}
