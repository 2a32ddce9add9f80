// Package report is the results file of `bench run` and the comparison of
// two such files: one schema for every workload and metric, a summary of
// repeated runs as median and quartiles, and the verdict rules that decide
// whether a change regressed, improved, or cannot be told from noise.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"github.com/bingo-search/bingo/cmd/bench/stat"
)

// Results is one `bench run`: the environment it ran in and, per workload,
// every metric's repeated values.
type Results struct {
	Env       Env        `json:"env"`
	Workloads []Workload `json:"workloads"`
}

// Env records what the numbers depend on besides the code.
type Env struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Repeats   int     `json:"repeats"`
	// Rates holds every workload's two fixed arrival rates (window A, B).
	Rates map[string][2]float64 `json:"rates_per_s"`
}

// Workload is one workload's outcome over all repeats.
type Workload struct {
	Name string `json:"name"`
	// Correct is false if any repeat failed an oracle.
	Correct bool `json:"correct"`
	// Attempted and Failed are summed over the untraced repeats.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// EndToEnd has one series per gated metric, Repeats values each;
	// PerLayer has one value each, from the single traced run.
	EndToEnd []Series `json:"end_to_end"`
	PerLayer []Series `json:"per_layer"`
	// Info is the last untraced repeat's record of exact counts, rates and
	// window lengths.
	Info map[string]float64 `json:"info"`
}

// Series is one metric's values with their summary.
type Series struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// NewSeries summarizes values.
func NewSeries(name, unit, better string, bound float64, values []float64) Series {
	s := Series{Name: name, Unit: unit, Better: better, Bound: bound, Values: values}
	s.Median = stat.Median(values)
	s.Q1, s.Q3 = stat.Quartiles(values)
	return s
}

// Spread is the series' interquartile range as a share of its median.
func (s Series) Spread() float64 { return stat.Spread(s.Values) }

// Load reads a results file.
func Load(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Save writes a results file.
func (r *Results) Save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Print writes every metric by name with its unit, median and quartiles.
func (r *Results) Print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range r.Workloads {
		fmt.Fprintf(tw, "%s\tcorrect=%v\tattempted=%d\tfailed=%d\t\t\n", wl.Name, wl.Correct, wl.Attempted, wl.Failed)
		for _, s := range wl.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%s\tmedian %.6g\tq1 %.6g\tq3 %.6g\tspread %.1f%% (bound %.0f%%)\n",
				s.Name, s.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread(), 100*s.Bound)
		}
		for _, s := range wl.PerLayer {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t\t\t\n", s.Name, s.Unit, s.Median)
		}
	}
	tw.Flush()
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

// The verdicts of a gated row.
const (
	OK         Verdict = "ok"
	Improved   Verdict = "improved"
	Regression Verdict = "REGRESSION"
	Unresolved Verdict = "unresolved"
)

// Row is one line of the comparison table.
type Row struct {
	Workload, Metric, Unit string
	Old, New               float64
	// Delta is (new-old)/old.
	Delta   float64
	Verdict Verdict // "" on per-layer rows, which never gate
}

// failShareSlack is how much the share of failed operations may rise, in
// absolute terms, before it counts as a regression.
const failShareSlack = 0.001

// judge applies the rules of the choosing-metrics guide to one gated
// metric. The change may be worse than the parent by at most the bound.
// When either side's own run-to-run spread is wider than the bound the
// medians cannot settle it: the metric is unresolved, unless every run of
// one side beats every run of the other, which no amount of noise explains.
func judge(old, cur Series) Verdict {
	worse := func(a, b float64) bool { // a is worse than b
		if old.Better == "higher" {
			return a < b
		}
		return a > b
	}
	allWorse, allBetter := true, true
	for _, n := range cur.Values {
		for _, o := range old.Values {
			allWorse = allWorse && worse(n, o)
			allBetter = allBetter && worse(o, n)
		}
	}
	change := 0.0 // positive = worse, as a share of the old median
	if old.Median != 0 {
		change = (cur.Median - old.Median) / old.Median
		if old.Better == "higher" {
			change = -change
		}
	}
	noisy := old.Spread() > old.Bound || cur.Spread() > old.Bound
	switch {
	case change > old.Bound && (!noisy || allWorse):
		return Regression
	case change < -old.Bound && (!noisy || allBetter):
		return Improved
	case noisy && !allBetter:
		return Unresolved
	default:
		return OK
	}
}

// Compare lines up two results files. It returns one gated row per workload
// × end-to-end metric (plus fail_share), the per-layer rows, and whether any
// gated row regressed.
func Compare(old, cur *Results) (gated, layers []Row, regressed bool) {
	curBy := map[string]Workload{}
	for _, w := range cur.Workloads {
		curBy[w.Name] = w
	}
	for _, ow := range old.Workloads {
		cw, ok := curBy[ow.Name]
		if !ok {
			continue
		}
		index := func(ss []Series) map[string]Series {
			m := map[string]Series{}
			for _, s := range ss {
				m[s.Name] = s
			}
			return m
		}
		curE2E, curLayer := index(cw.EndToEnd), index(cw.PerLayer)
		for _, os := range ow.EndToEnd {
			cs, ok := curE2E[os.Name]
			if !ok {
				continue
			}
			row := Row{Workload: ow.Name, Metric: os.Name, Unit: os.Unit, Old: os.Median, New: cs.Median, Verdict: judge(os, cs)}
			if os.Median != 0 {
				row.Delta = (cs.Median - os.Median) / os.Median
			}
			regressed = regressed || row.Verdict == Regression
			gated = append(gated, row)
		}
		share := func(w Workload) float64 {
			if w.Attempted == 0 {
				return 0
			}
			return float64(w.Failed) / float64(w.Attempted)
		}
		fr := Row{Workload: ow.Name, Metric: "fail_share", Unit: "share", Old: share(ow), New: share(cw), Verdict: OK}
		if fr.New > fr.Old+failShareSlack || (ow.Correct && !cw.Correct) {
			fr.Verdict = Regression
			regressed = true
		}
		gated = append(gated, fr)
		for _, os := range ow.PerLayer {
			cs, ok := curLayer[os.Name]
			if !ok {
				continue
			}
			row := Row{Workload: ow.Name, Metric: os.Name, Unit: os.Unit, Old: os.Median, New: cs.Median}
			if os.Median != 0 {
				row.Delta = (cs.Median - os.Median) / os.Median
			}
			layers = append(layers, row)
		}
	}
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Workload < layers[j].Workload })
	return gated, layers, regressed
}

// WriteTable prints the metric · old → new · delta table: the gated rows
// first, the per-layer rows below.
func WriteTable(w io.Writer, gated, layers []Row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tunit\told\tnew\tdelta\tverdict\t")
	for _, r := range gated {
		fmt.Fprintf(tw, "%s/%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t\n", r.Workload, r.Metric, r.Unit, r.Old, r.New, 100*r.Delta, r.Verdict)
	}
	if len(layers) > 0 {
		fmt.Fprintln(tw, "\t\t\t\t\t\t")
		fmt.Fprintln(tw, "per layer (never gating)\tunit\told\tnew\tdelta\t\t")
		for _, r := range layers {
			fmt.Fprintf(tw, "%s/%s\t%s\t%.6g\t%.6g\t%+.2f%%\t\t\n", r.Workload, r.Metric, r.Unit, r.Old, r.New, 100*r.Delta)
		}
	}
	tw.Flush()
}
