package experiments

import (
	"testing"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/frontier"
)

// TestFrontierSchedulerSmoke is the CI leg of the scheduling lab: every
// scheduler must complete a budgeted crawl of the tiny world, store pages,
// and the link-context score must harvest at least as well as the
// fifo-priority baseline. Deterministic (one worker, fault-free), so a pass
// is stable.
func TestFrontierSchedulerSmoke(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	cells, report, err := FrontierRace(w, 150, []string{"off"}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	if len(cells) != len(frontier.SchedulerNames()) {
		t.Fatalf("got %d cells, want one per scheduler (%d)", len(cells), len(frontier.SchedulerNames()))
	}
	harvest := map[string]float64{}
	for _, c := range cells {
		if c.Visited == 0 || c.Stored == 0 {
			t.Errorf("%s: crawl went nowhere: %+v", c.Scheduler, c)
		}
		harvest[c.Scheduler] = c.Harvest
	}
	if harvest[frontier.SchedulerLinkContext] < harvest[frontier.SchedulerFIFOPriority] {
		t.Errorf("link-context harvest %.3f below fifo baseline %.3f",
			harvest[frontier.SchedulerLinkContext], harvest[frontier.SchedulerFIFOPriority])
	}
}

// TestFrontierSpillSmoke: for every scheduler the budgeted frontier must
// cap its in-memory share while the unbounded one grows past it, at no
// harvest cost on a fault-free deterministic crawl. The 62-link budget sits
// below both schedulers' unbounded peaks on this world (66 and 64 links).
func TestFrontierSpillSmoke(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	for _, sched := range frontier.SchedulerNames() {
		rep, err := FrontierSpillEvidence(w, sched, 150, 62)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s spill evidence: %+v", sched, rep)
		if rep.PeakBounded > rep.FrontierBudget {
			t.Errorf("%s: bounded frontier peaked at %d links in memory, budget %d", sched, rep.PeakBounded, rep.FrontierBudget)
		}
		if rep.PeakUnbounded <= rep.FrontierBudget {
			t.Errorf("%s: unbounded frontier peaked at %d, expected growth past the %d budget",
				sched, rep.PeakUnbounded, rep.FrontierBudget)
		}
		if rep.SpilledPeak == 0 {
			t.Errorf("%s: bounded run never spilled", sched)
		}
		if rep.HarvestDelta != 0 {
			t.Errorf("%s: spill changed the harvest ratio by %+.3f on a deterministic crawl", sched, rep.HarvestDelta)
		}
	}
}
