// Command bench is the repository's one benchmark: four seeded workloads
// that measure the system end to end — seed URL to queryable document, and
// HTTP /search request to response bytes, single-process and through a
// coordinator over two shard servers — with a per-layer cost budget under
// each. See README.md in this directory and BENCHMARK.json at the root.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object (the contract BENCHMARK.json is run by)
//	bench run [-workloads a,b] [-seed n] [-seconds s] [-repeats N] [-out f]
//	    N untraced runs and one traced run of each workload, each in its own
//	    process; prints every metric by name with unit, median and
//	    quartiles, and writes the results file compare reads
//	bench compare old.json new.json
//	    the metric · old → new · delta table; exit status 1 on a regression
//	    beyond a metric's bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/bingo-search/bingo/cmd/bench/harness"
)

// workDir is where data directories and span files go: inside the checkout
// the benchmark is run from, and listed in .gitignore.
var workDir = filepath.Join(".bench_build", "tmp")

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runAll(os.Args[2:]))
		case "compare":
			os.Exit(compareFiles(os.Args[2:]))
		}
	}
	os.Exit(runOne(os.Args[1:]))
}

// resultLine is the last line of standard output of one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the contract entry point.
func runOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of "+fmt.Sprint(harness.Workloads))
	seed := fs.Int64("seed", 2003, "workload seed: the world's seed and the seed of every query and arrival stream")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | bench run … | bench compare old.json new.json")
		return 2
	}
	out, err := harness.Run(context.Background(), harness.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		Scale:    harness.Bench,
		WorkDir:  workDir,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "bench: problem:", p)
	}
	list := harness.EndToEnd
	if *trace != 0 {
		list = harness.PerLayer
		fmt.Fprintln(os.Stderr, "bench: spans written to", out.SpanFile)
	}
	line := resultLine{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v := out.Metrics[m.Name]
		fmt.Printf("%-32s %16.6g %s\n", m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	info, _ := json.Marshal(out.Info)
	fmt.Printf("info %s\n", info)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
