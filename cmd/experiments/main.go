// Command experiments regenerates the paper's tables and figures (§5) and
// the §3 ablation studies against the synthetic web, printing the same rows
// the paper reports.
//
// Usage:
//
//	experiments [-world tiny|small|default] [-run all|table1|table2|table3|fig4|fig5|meta|mi|focus|tunnel|archetype|twophase|spaces|sweep|hierarchy|trap|frontier]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/experiments"
	"github.com/bingo-search/bingo/internal/frontier"
)

func main() {
	worldFlag := flag.String("world", "small", "synthetic world size: tiny, small or default")
	runFlag := flag.String("run", "all", "experiment id (all, table1, table2, table3, fig4, fig5, meta, mi, focus, tunnel, archetype, twophase, spaces, sweep, hierarchy, trap, frontier)")
	shortBudget := flag.Int64("short", 250, "short crawl page budget (the '90 minutes' analog)")
	longBudget := flag.Int64("long", 2000, "long crawl page budget (the '12 hours' analog)")
	topN := flag.Int("topn", 75, "ground-truth top-N author cut (the 'top 1000 DBLP authors' analog)")
	outPath := flag.String("out", "", "also write the report to this file")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	cfg, err := corpus.ConfigByName(*worldFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, "generating synthetic web ...")
	w := corpus.Generate(cfg)
	fmt.Fprintln(out, w)
	fmt.Fprintln(out)

	ctx := context.Background()
	want := func(id string) bool { return *runFlag == "all" || *runFlag == id }
	ran := false

	if want("table1") {
		ran = true
		_, _, report, err := experiments.Table1(ctx, w, *shortBudget, *longBudget)
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("table2") {
		ran = true
		run, err := experiments.RunPortal(ctx, w, *shortBudget/4, *shortBudget-*shortBudget/4, nil)
		check(err)
		_, report := experiments.PrecisionTable(w, run, *topN, []int{50, 200, 0})
		ev := experiments.Recall(w, run, *topN)
		fmt.Fprintln(out, "Table 2: BINGO! precision (short crawl)")
		fmt.Fprint(out, report)
		fmt.Fprintf(out, "total recall: %d of top %d ground-truth authors, %d authors overall\n\n",
			ev.FoundTop, *topN, ev.FoundAll)
	}
	if want("table3") {
		ran = true
		run, err := experiments.RunPortal(ctx, w, *shortBudget/4, *longBudget-*shortBudget/4, nil)
		check(err)
		_, report := experiments.PrecisionTable(w, run, *topN, []int{50, 200, 0})
		ev := experiments.Recall(w, run, *topN)
		fmt.Fprintln(out, "Table 3: BINGO! precision (long crawl)")
		fmt.Fprint(out, report)
		fmt.Fprintf(out, "total recall: %d of top %d ground-truth authors, %d authors overall\n\n",
			ev.FoundTop, *topN, ev.FoundAll)
	}
	if want("fig4") {
		ran = true
		fmt.Fprintln(out, experiments.Figure4(w))
	}
	if want("fig5") {
		ran = true
		run, err := experiments.RunExpert(ctx, w, 400)
		check(err)
		fmt.Fprintln(out, experiments.Figure5(run))
	}
	if want("meta") {
		ran = true
		_, report, err := experiments.MetaAblation(w, 12)
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("mi") {
		ran = true
		fmt.Fprintln(out, "Top MI feature stems for topic 'databases' (§2.3 example):")
		for _, term := range experiments.MITopTerms(w, 12) {
			fmt.Fprintf(out, "  %s\n", term)
		}
		fmt.Fprintln(out)
	}
	if want("focus") {
		ran = true
		_, report, err := experiments.FocusedVsUnfocused(ctx, w, *shortBudget)
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("tunnel") {
		ran = true
		runs, err := experiments.TunnellingAblation(ctx, w, *longBudget, []int{0, 1, 2})
		check(err)
		fmt.Fprintln(out, "Tunnelling ablation (§3.3, saturating budget)")
		for _, d := range []int{0, 1, 2} {
			s := runs[d].Total()
			ev := experiments.Recall(w, runs[d], *topN)
			fmt.Fprintf(out, "  depth %d: %5d stored, %5d positive, authors found %d/%d\n",
				d, s.StoredPages, s.Positive, ev.FoundAll, len(w.Authors))
		}
		fmt.Fprintln(out)
	}
	if want("archetype") {
		ran = true
		withArch, withoutArch, err := experiments.ArchetypeAblation(ctx, w, *shortBudget)
		check(err)
		evW := experiments.Recall(w, withArch, *topN)
		evO := experiments.Recall(w, withoutArch, *topN)
		fmt.Fprintln(out, "Archetype-promotion ablation (§3.2)")
		fmt.Fprintf(out, "  with promotion:    training docs %3d, top-%d recall %d\n",
			withArch.Engine.TrainingSize(), *topN, evW.FoundTop)
		fmt.Fprintf(out, "  without promotion: training docs %3d, top-%d recall %d\n\n",
			withoutArch.Engine.TrainingSize(), *topN, evO.FoundTop)
	}
	if want("twophase") {
		ran = true
		two, only, err := experiments.TwoPhaseAblation(ctx, w, *shortBudget)
		check(err)
		fmt.Fprintln(out, "Two-phase ablation (§2.6)")
		fmt.Fprintf(out, "  learn+harvest: top-%d recall %d of %d stored\n",
			*topN, experiments.Recall(w, two, *topN).FoundTop, len(two.Stored))
		fmt.Fprintf(out, "  harvest-only:  top-%d recall %d of %d stored\n\n",
			*topN, experiments.Recall(w, only, *topN).FoundTop, len(only.Stored))
	}
	if want("spaces") {
		ran = true
		_, report, err := experiments.FeatureSpaceAblation(w, 40)
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("sweep") {
		ran = true
		_, report, err := experiments.FeatureCountSweep(w, 40, []int{500, 1000, 2000, 5000})
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("trap") {
		ran = true
		_, report, err := experiments.TrapResistance(ctx, cfg, *longBudget)
		check(err)
		fmt.Fprintln(out, report)
	}
	if want("frontier") {
		ran = true
		// The matrix of EXPERIMENTS.md "Frontier scheduling race", which
		// records it at -world small -short 400.
		_, report, err := experiments.FrontierRace(w, *shortBudget, []string{"off", "default", "flaky"}, []int64{1, 7, 23})
		check(err)
		fmt.Fprintln(out, report)
		spill, err := experiments.FrontierSpillEvidence(w, frontier.SchedulerFIFOPriority, *shortBudget, 256)
		check(err)
		fmt.Fprintf(out, "frontier memory: unbounded peak %d links, budget-256 peak %d links (%d spilled at peak), harvest delta %+.3f\n\n",
			spill.PeakUnbounded, spill.PeakBounded, spill.SpilledPeak, spill.HarvestDelta)
	}
	if want("hierarchy") {
		ran = true
		// hierarchical ground truth needs its own world
		hw := corpus.Generate(corpus.HierarchicalConfig())
		run, err := experiments.RunHierarchy(ctx, hw, *shortBudget/2, *longBudget/2)
		check(err)
		fmt.Fprintln(out, experiments.HierarchyReport(run))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runFlag)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
