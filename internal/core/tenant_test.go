package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/search"
)

func TestValidateTenantID(t *testing.T) {
	for _, id := range []string{"beta", "a", "Tenant-2", "x.y_z", "0123456789"} {
		if err := ValidateTenantID(id); err != nil {
			t.Errorf("ValidateTenantID(%q) = %v", id, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"", "a b", "a/b", "a\x00b", "é", string(long)} {
		if err := ValidateTenantID(id); err == nil {
			t.Errorf("ValidateTenantID(%q) accepted", id)
		}
	}
}

func TestAddTenantRegistry(t *testing.T) {
	e, world := newTestEngine(t, nil)
	defer e.Close()
	if _, err := e.AddTenant("bad id", e.cfg.Topics, nil); err == nil {
		t.Error("invalid id accepted")
	}
	tn, err := e.AddTenant("beta", []TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}}, world.GeneralPageURLs(5))
	if err != nil {
		t.Fatal(err)
	}
	if tn.ID() != "beta" {
		t.Errorf("ID = %q", tn.ID())
	}
	if _, err := e.AddTenant("beta", e.cfg.Topics, nil); err == nil {
		t.Error("duplicate id accepted")
	}
	got, ok := e.Tenant("beta")
	if !ok || got != tn {
		t.Fatal("lookup failed")
	}
	all := e.Tenants()
	if len(all) != 2 || all[0].ID() != "" || all[1].ID() != "beta" {
		t.Fatalf("Tenants() order wrong: %v", []string{all[0].ID(), all[1].ID()})
	}
	stats := e.TenantStats()
	if len(stats) != 2 || stats[1].ID != "beta" {
		t.Fatalf("TenantStats = %+v", stats)
	}
}

// TestMultiTenantCrawlIsolation runs two portals — the default tenant and a
// named one — from different bookmark sets of one world into one shared
// store, and asserts zero cross-tenant leakage on the search path.
func TestMultiTenantCrawlIsolation(t *testing.T) {
	e, world := newTestEngine(t, func(c *Config) {
		// The default tenant keeps the first bookmark; the named tenant
		// below gets the rest.
		c.Topics[0].Seeds = c.Topics[0].Seeds[:1]
	})
	defer e.Close()
	seeds := world.SeedURLs()
	beta, err := e.AddTenant("beta",
		[]TopicSpec{{Path: []string{"databases"}, Seeds: seeds[1:]}},
		world.GeneralPageURLs(12))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := beta.Run(ctx); err != nil {
		t.Fatal(err)
	}

	defDocs := e.store.TenantNumDocs("")
	betaDocs := e.store.TenantNumDocs("beta")
	if defDocs == 0 || betaDocs == 0 {
		t.Fatalf("tenant doc counts: default=%d beta=%d", defDocs, betaDocs)
	}
	if defDocs+betaDocs != e.store.NumDocs() {
		t.Fatalf("tenant counts %d+%d don't cover the store's %d docs",
			defDocs, betaDocs, e.store.NumDocs())
	}

	eng := e.Search()
	for _, tc := range []struct {
		tenant string
	}{{""}, {"beta"}} {
		hits := eng.Search(search.Query{Text: "author database research", Tenant: tc.tenant, Limit: 100})
		if len(hits) == 0 {
			t.Fatalf("tenant %q: no hits — weak test", tc.tenant)
		}
		for _, h := range hits {
			if h.Doc.Tenant != tc.tenant {
				t.Fatalf("tenant %q query returned tenant %q doc %s",
					tc.tenant, h.Doc.Tenant, h.Doc.URL)
			}
		}
	}

	// Both tenants have their own ensembles and lifecycle counters.
	if beta.Classifier() == nil || e.Classifier() == nil {
		t.Fatal("missing ensemble after crawl")
	}
	if beta.Phase() != PhaseDone || e.Phase() != PhaseDone {
		t.Fatalf("phases: default=%v beta=%v", e.Phase(), beta.Phase())
	}
	st := beta.Stats()
	if st.Docs != betaDocs || st.Retrains == 0 || st.TrainingDocs == 0 {
		t.Fatalf("beta stats = %+v", st)
	}
}

// TestRetrainPublishesAtomically hammers the read paths — classifyCallback
// and tenant-scoped search — while background retrains publish new
// ensembles. Run under -race this is the half-built-ensemble detector: a
// reader may see the old or the new classifier, never a partial one, and
// must never block on a train.
func TestRetrainPublishesAtomically(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	defer e.Close()
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if !e.StartRetrainer(time.Millisecond) {
		t.Fatal("StartRetrainer refused")
	}
	if e.StartRetrainer(time.Millisecond) {
		t.Fatal("second StartRetrainer accepted")
	}

	probe := classify.Doc{
		ID:    "probe",
		Input: features.DocInput{Stems: []string{"databas", "research", "author"}},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res := e.def.classifyCallback(probe)
				if res.Topic == "" {
					errCh <- "classifyCallback returned empty topic"
					return
				}
				if cls := e.Classifier(); cls == nil {
					errCh <- "ensemble disappeared mid-retrain"
					return
				}
				e.Search().Search(search.Query{Text: "database research", Limit: 5})
			}
		}()
	}
	start := e.Retrains()
	deadline := time.Now().Add(2 * time.Second)
	for e.Retrains() < start+3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
	if e.Retrains() < start+3 {
		t.Fatalf("background retrainer published %d ensembles in 2s (started at %d)",
			e.Retrains()-start, start)
	}
}

// TestFailedTrainKeepsOldEnsemble makes a retrain fail deliberately and
// asserts the previously published ensemble keeps serving.
func TestFailedTrainKeepsOldEnsemble(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	defer e.Close()
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	old := e.Classifier()
	if old == nil {
		t.Fatal("no ensemble after bootstrap")
	}
	// Empty the negative examples: classify.Train refuses to train a topic
	// with no OTHERS documents.
	def := e.def
	def.mu.Lock()
	saved := def.training.Others
	def.training.Others = nil
	def.mu.Unlock()
	if err := e.Retrain(); err == nil {
		t.Fatal("retrain with no OTHERS succeeded")
	}
	if e.Classifier() != old {
		t.Fatal("failed train replaced the serving ensemble")
	}
	if def.TrainFailures() != 1 {
		t.Fatalf("TrainFailures = %d", def.TrainFailures())
	}
	// Restore and confirm the next train publishes again.
	def.mu.Lock()
	def.training.Others = saved
	def.mu.Unlock()
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	if e.Classifier() == old {
		t.Fatal("successful retrain did not publish a new ensemble")
	}
}

// TestSearchBitIdenticalAcrossRetrain: retraining publishes a new ensemble
// but must not perturb serving — stored topics, confidences and scores stay
// bit-identical.
func TestSearchBitIdenticalAcrossRetrain(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	defer e.Close()
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	q := search.Query{Text: "author database research", Limit: 50}
	before := e.Search().Search(q)
	if len(before) == 0 {
		t.Fatal("no hits — weak test")
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	after := e.Search().Search(q)
	if len(before) != len(after) {
		t.Fatalf("hit count changed across retrain: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Doc.URL != after[i].Doc.URL ||
			math.Float64bits(before[i].Score) != math.Float64bits(after[i].Score) {
			t.Fatalf("hit %d changed across retrain: %q %x -> %q %x", i,
				before[i].Doc.URL, math.Float64bits(before[i].Score),
				after[i].Doc.URL, math.Float64bits(after[i].Score))
		}
	}
}

// TestCloseIdempotentStopsRetrainer: Close is safe to call repeatedly and
// stops the background retrainer before closing the store.
func TestCloseIdempotentStopsRetrainer(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !e.StartRetrainer(time.Millisecond) {
		t.Fatal("StartRetrainer refused")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	n := e.Retrains()
	time.Sleep(20 * time.Millisecond)
	if e.Retrains() != n {
		t.Fatal("retrainer still publishing after Close")
	}
	if e.StartRetrainer(time.Millisecond) {
		t.Fatal("StartRetrainer accepted after Close")
	}
}
