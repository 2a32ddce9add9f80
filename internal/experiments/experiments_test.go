package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
)

func tinyWorld() *corpus.World { return corpus.Generate(corpus.TinyConfig()) }

func TestTable1ShapeHolds(t *testing.T) {
	w := tinyWorld()
	shortRun, longRun, report, err := Table1(context.Background(), w, 80, 400)
	if err != nil {
		t.Fatal(err)
	}
	s, l := shortRun.Total(), longRun.Total()
	// the long crawl dominates the short crawl on every volume counter
	if l.VisitedURLs <= s.VisitedURLs || l.StoredPages <= s.StoredPages ||
		l.Positive <= s.Positive || l.VisitedHosts < s.VisitedHosts {
		t.Errorf("long crawl does not dominate:\nshort=%+v\nlong=%+v", s, l)
	}
	for _, want := range []string{"Visited URLs", "Stored pages", "Positively classified", "Max crawling depth"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPrecisionTablesImproveWithBudget(t *testing.T) {
	w := tinyWorld()
	ctx := context.Background()
	// One worker: the two crawls are independent, and with 15 workers the
	// interleaving decides which pages fit in each budget, so the short run
	// can out-recall the long one by luck.
	oneWorker := func(c *coreConfig) { c.Workers = 1 }
	shortRun, err := RunPortal(ctx, w, 30, 60, oneWorker)
	if err != nil {
		t.Fatal(err)
	}
	longRun, err := RunPortal(ctx, w, 30, 320, oneWorker)
	if err != nil {
		t.Fatal(err)
	}
	topN := 10
	evShort := Recall(w, shortRun, topN)
	evLong := Recall(w, longRun, topN)
	if evLong.FoundAll < evShort.FoundAll {
		t.Errorf("recall regressed with budget: %+v vs %+v", evShort, evLong)
	}
	if evLong.FoundTop < evShort.FoundTop {
		t.Errorf("top recall regressed: %+v vs %+v", evShort, evLong)
	}
	rows, report := PrecisionTable(w, longRun, topN, []int{20, 50, 0})
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// counts are monotone in K
	if rows[1].TopAuthors < rows[0].TopAuthors || rows[2].TopAuthors < rows[1].TopAuthors {
		t.Errorf("non-monotone precision rows: %v", rows)
	}
	if !strings.Contains(report, "Best crawl results") {
		t.Errorf("report = %q", report)
	}
}

func TestExpertRunFindsNeedle(t *testing.T) {
	w := tinyWorld()
	run, err := RunExpert(context.Background(), w, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Hits) == 0 {
		t.Fatal("no hits")
	}
	if !run.NeedleInTop {
		var urls []string
		for _, h := range run.Hits {
			urls = append(urls, h.Doc.URL)
		}
		t.Errorf("needle not found; top = %v", urls)
	}
	fig4 := Figure4(w)
	if !strings.Contains(fig4, "aries") {
		t.Errorf("Figure4 = %q", fig4)
	}
	fig5 := Figure5(run)
	if !strings.Contains(fig5, "source code release") {
		t.Errorf("Figure5 = %q", fig5)
	}
}

func TestLabeledDocsAndClassifierEval(t *testing.T) {
	w := tinyWorld()
	train, test := LabeledDocs(w, 15, 0)
	if len(train.ByTopic) != 2 || len(train.Others) == 0 {
		t.Fatalf("train shape: %d topics, %d others", len(train.ByTopic), len(train.Others))
	}
	cls, err := TrainOnLabeled(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, r := EvalClassifier(cls, test, classify.MetaBestSingle)
	if p < 0.5 {
		t.Errorf("precision = %.3f", p)
	}
	if r < 0.4 {
		t.Errorf("recall = %.3f", r)
	}
}

func TestMetaAblationShape(t *testing.T) {
	w := tinyWorld()
	res, report, err := MetaAblation(w, 15)
	if err != nil {
		t.Fatal(err)
	}
	// unanimous must be at least as precise as the weakest single space
	worst := 1.0
	for _, p := range res.SinglePrec {
		if p < worst {
			worst = p
		}
	}
	if res.Unanimous+1e-9 < worst {
		t.Errorf("unanimous %.3f below worst single %.3f\n%s", res.Unanimous, worst, report)
	}
	if !strings.Contains(report, "unanimous") {
		t.Errorf("report = %q", report)
	}
}

func TestFocusedVsUnfocused(t *testing.T) {
	w := tinyWorld()
	cmp, report, err := FocusedVsUnfocused(context.Background(), w, 200)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FocusedOnTopic <= cmp.UnfocusedOnTopic {
		t.Errorf("focused %.3f <= unfocused %.3f\n%s", cmp.FocusedOnTopic, cmp.UnfocusedOnTopic, report)
	}
}

func TestTunnellingAblation(t *testing.T) {
	w := tinyWorld()
	// saturating budget: tunnelling must unlock pages behind welcome pages.
	// One worker: with 15, the two independent crawls differ by up to ten
	// authors either way from interleaving alone.
	out, err := tunnellingAblation(context.Background(), w, 600, []int{0, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny world saturates at this budget, so classifier noise of a
	// couple of authors is tolerated; tunnelling must not lose more.
	ev0 := Recall(w, out[0], 10)
	ev2 := Recall(w, out[2], 10)
	if ev2.FoundAll+2 < ev0.FoundAll {
		t.Errorf("tunnelling reduced recall: %d vs %d", ev2.FoundAll, ev0.FoundAll)
	}
}

func TestArchetypeAblation(t *testing.T) {
	w := tinyWorld()
	withArch, withoutArch, err := ArchetypeAblation(context.Background(), w, 200)
	if err != nil {
		t.Fatal(err)
	}
	if withArch.Engine.TrainingSize() <= withoutArch.Engine.TrainingSize() {
		t.Errorf("archetype promotion had no effect on training size: %d vs %d",
			withArch.Engine.TrainingSize(), withoutArch.Engine.TrainingSize())
	}
}

func TestTwoPhaseAblation(t *testing.T) {
	w := tinyWorld()
	two, only, err := TwoPhaseAblation(context.Background(), w, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(two.Stored) == 0 || len(only.Stored) == 0 {
		t.Fatalf("empty runs: %d vs %d", len(two.Stored), len(only.Stored))
	}
}

func TestMITopTerms(t *testing.T) {
	w := tinyWorld()
	terms := MITopTerms(w, 10)
	if len(terms) != 10 {
		t.Fatalf("terms = %v", terms)
	}
	joined := strings.Join(terms, " ")
	// database seed-term stems should dominate the MI ranking
	found := 0
	for _, want := range []string{"databas", "queri", "transact", "recoveri", "index", "sql", "schema"} {
		if strings.Contains(joined, want) {
			found++
		}
	}
	if found < 2 {
		t.Errorf("MI top terms look wrong: %v", terms)
	}
}

func TestFeatureCountSweep(t *testing.T) {
	w := tinyWorld()
	out, report, err := FeatureCountSweep(w, 12, []int{50, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.Contains(report, "top-") {
		t.Errorf("sweep = %v, %q", out, report)
	}
}

func TestFeatureSpaceAblation(t *testing.T) {
	w := tinyWorld()
	out, report, err := FeatureSpaceAblation(w, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || !strings.Contains(report, "terms") {
		t.Errorf("ablation = %v, %q", out, report)
	}
}

func TestRunHierarchy(t *testing.T) {
	cfg := corpus.TinyConfig()
	cfg.PrimarySubtopics = []string{"systems", "mining"}
	w := corpus.Generate(cfg)
	run, err := RunHierarchy(context.Background(), w, 120, 300)
	if err != nil {
		t.Fatal(err)
	}
	if run.Evaluated < 10 {
		t.Fatalf("too few evaluated author pages: %d", run.Evaluated)
	}
	if acc := run.LeafAccuracy(); acc < 0.7 {
		t.Errorf("leaf accuracy = %.3f\n%s", acc, HierarchyReport(run))
	}
	if len(run.PerLeaf) != 2 {
		t.Errorf("leaves = %v", run.PerLeaf)
	}
	// single-level world errors out
	if _, err := RunHierarchy(context.Background(), tinyWorld(), 50, 50); err == nil {
		t.Error("single-level world accepted")
	}
}

func TestTrapResistance(t *testing.T) {
	res, report, err := TrapResistance(context.Background(), corpus.TinyConfig(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.FocusedTrapped > res.FocusedStored/10 {
		t.Errorf("focused crawler trapped: %+v\n%s", res, report)
	}
	if res.UnfocusedTrapped <= res.FocusedTrapped {
		t.Errorf("baseline should wander into the trap more: %+v", res)
	}
	if !strings.Contains(report, "trap") {
		t.Errorf("report = %q", report)
	}
}
