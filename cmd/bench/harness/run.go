package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/span"
	"github.com/bingo-search/bingo/cmd/bench/stat"
)

// Options is one invocation: one workload, one seed, traced or not.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the open-loop windows A+B last (ingest-tiered's
	// two crawls before them take as long as they take). A traced run gives
	// a third of it to the untraced reference windows and a third to their
	// traced repeat; the staged replays are sized by count.
	Seconds float64
	Trace   bool
	Scale   Scale
	// WorkDir receives the data directories (removed when the run ends) and,
	// in a traced run, the span file.
	WorkDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Outcome is what one invocation reports.
type Outcome struct {
	// Correct is true when every oracle passed and every window was valid.
	Correct bool
	// Attempted and Failed count operations: requests offered, pages
	// visited, churn flushes and oracle checks; a failure is a non-2xx
	// response, a timeout, a missed window, an unfetchable page, a marker
	// that never became visible or an oracle miss.
	Attempted int64
	Failed    int64
	// Metrics holds every end-to-end metric (untraced) or every per-layer
	// metric (traced).
	Metrics map[string]float64
	// Info records the exact counts and the settings of the run — the
	// staging crawl's stored/visited, rates, window lengths — for the
	// results file; none of it is gated.
	Info map[string]float64
	// Problems lists failed oracles and invalid windows, one line each.
	Problems []string
	// SpanFile is where a traced run wrote its spans.
	SpanFile string
}

// run is the state of one invocation.
type run struct {
	opt Options
	sc  Scale
	rec *span.Recorder // nil unless traced
	out *Outcome
	// e2e collects samples of each end-to-end metric; the reported value is
	// their median.
	e2e map[string][]float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	dirs  []string // scratch directories to remove
	// reqBase numbers traced requests uniquely across windows.
	reqBase int
}

// Run executes one workload and returns its outcome. An error means the
// harness itself could not run (bad options, I/O failure); a wrong answer
// from the program is reported through Outcome.Correct instead.
func Run(ctx context.Context, opt Options) (*Outcome, error) {
	if _, known := opt.Scale.Rates[opt.Workload]; !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.Workload, Workloads)
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", opt.Seconds)
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	r := &run{
		opt:   opt,
		sc:    opt.Scale,
		out:   &Outcome{Metrics: map[string]float64{}, Info: map[string]float64{}},
		e2e:   map[string][]float64{},
		layer: map[string]float64{},
	}
	if opt.Trace {
		r.rec = span.NewRecorder(1 << 16)
		r.sc.SetupReps = 1
	}
	defer r.cleanup()

	var err error
	if opt.Workload == IngestTiered {
		err = r.ingestTiered(ctx)
	} else {
		err = r.serve(ctx)
	}
	if err != nil {
		return nil, err
	}

	if opt.Trace {
		r.layer["bench.gc_cpu_share"] = gcCPUShare()
		r.layer["bench.fail_share"] = ratio(float64(r.out.Failed), float64(r.out.Attempted))
		for _, m := range PerLayer {
			r.out.Metrics[m.Name] = r.layer[m.Name]
		}
		r.logSpans()
		r.out.SpanFile = filepath.Join(opt.WorkDir, fmt.Sprintf("trace-%s-%d.json", opt.Workload, opt.Seed))
		if err := r.rec.WriteJSON(r.out.SpanFile); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		for _, m := range EndToEnd {
			vs := r.e2e[m.Name]
			if len(vs) == 0 {
				return nil, fmt.Errorf("workload %s produced no sample of %s", opt.Workload, m.Name)
			}
			r.out.Metrics[m.Name] = stat.Median(vs)
		}
	}
	r.out.Correct = len(r.out.Problems) == 0 && r.out.Failed == 0
	return r.out, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.opt.Log, "bench[%s]: "+format+"\n", append([]any{r.opt.Workload}, args...)...)
}

// logSpans prints the traced run's spans rolled up by name: how many, their
// total time and their self time.
func (r *run) logSpans() {
	aggs := span.SelfTimes(r.rec.Spans())
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := aggs[n]
		r.logf("spans %-22s ×%-6d total %10.3f ms  self %10.3f ms", n, a.Count, float64(a.TotalNs)/1e6, float64(a.SelfNs)/1e6)
	}
}

// sample records one observation of an end-to-end metric.
func (r *run) sample(name string, v float64) { r.e2e[name] = append(r.e2e[name], v) }

// ops counts attempted operations of which failed failed.
func (r *run) ops(attempted, failed int, what string) {
	r.out.Attempted += int64(attempted)
	r.out.Failed += int64(failed)
	if failed > 0 {
		r.problem("%d of %d %s failed", failed, attempted, what)
	}
}

// check counts one oracle check.
func (r *run) check(ok bool, format string, args ...any) {
	r.out.Attempted++
	if !ok {
		r.out.Failed++
		r.problem(format, args...)
	}
}

// problem records one line of what went wrong, keeping the list short.
func (r *run) problem(format string, args ...any) {
	const limit = 20
	if len(r.out.Problems) < limit {
		r.out.Problems = append(r.out.Problems, fmt.Sprintf(format, args...))
	} else if len(r.out.Problems) == limit {
		r.out.Problems = append(r.out.Problems, "… more problems not listed")
	}
}

// scratch returns a fresh directory under WorkDir that cleanup removes.
func (r *run) scratch(label string) (string, error) {
	if err := os.MkdirAll(r.opt.WorkDir, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(r.opt.WorkDir, label+"-")
	if err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	r.dirs = append(r.dirs, dir)
	return dir, nil
}

// discard removes a scratch directory early.
func (r *run) discard(dir string) {
	os.RemoveAll(dir)
	for i, d := range r.dirs {
		if d == dir {
			r.dirs = append(r.dirs[:i], r.dirs[i+1:]...)
			return
		}
	}
}

func (r *run) cleanup() {
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// budget is the length of one pair of windows: all of --seconds in an
// untraced run, a third of it in a traced one (reference, traced repeat,
// and the rest left to the staged replays).
func (r *run) budget() time.Duration {
	d := time.Duration(r.opt.Seconds * float64(time.Second))
	if r.opt.Trace {
		return d / 3
	}
	return d
}

// samples returns how often a sub-second measurement is repeated: n times
// in a traced run, which reports it, once otherwise.
func (r *run) samples(n int) int {
	if r.opt.Trace {
		return n
	}
	return 1
}
