package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"github.com/bingo-search/bingo/cmd/bench/harness"
	"github.com/bingo-search/bingo/cmd/bench/report"
)

// runAll is `bench run`: every workload, repeats untraced runs and one
// traced run each, every run in a process of its own so that peak RSS, GC
// state and the metrics registry start fresh.
func runAll(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	list := fs.String("workloads", strings.Join(harness.Workloads, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 2003, "workload seed")
	seconds := fs.Float64("seconds", 8, "how long each run measures")
	repeats := fs.Int("repeats", 3, "untraced runs per workload; metrics are reported as median and quartiles")
	outPath := fs.String("out", "", "write the results file here (read by bench compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench run:", err)
		return 1
	}
	res := &report.Results{Env: report.Env{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		Seed:      *seed,
		Seconds:   *seconds,
		Repeats:   *repeats,
		Rates:     map[string][2]float64{},
	}}
	ok := true
	for _, name := range strings.Split(*list, ",") {
		rates, known := harness.Bench.Rates[name]
		if !known {
			fmt.Fprintf(os.Stderr, "bench run: unknown workload %q\n", name)
			return 2
		}
		res.Env.Rates[name] = [2]float64{rates.Lo, rates.Hi}
		wl := report.Workload{Name: name, Correct: true}
		values := map[string][]float64{}
		for rep := 0; rep < *repeats; rep++ {
			line, info, err := child(self, name, *seed, *seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench run: %s repeat %d: %v\n", name, rep, err)
				return 1
			}
			wl.Correct = wl.Correct && line.Correct
			wl.Attempted += line.Attempted
			wl.Failed += line.Failed
			wl.Info = info
			for k, v := range line.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for _, m := range harness.EndToEnd {
			wl.EndToEnd = append(wl.EndToEnd, report.NewSeries(m.Name, m.Unit, m.Better, m.Bound, values[m.Name]))
		}
		line, _, err := child(self, name, *seed, *seconds, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench run: %s traced: %v\n", name, err)
			return 1
		}
		wl.Correct = wl.Correct && line.Correct
		for _, m := range harness.PerLayer {
			wl.PerLayer = append(wl.PerLayer, report.NewSeries(m.Name, m.Unit, m.Better, 0, []float64{line.Metrics[m.Name].Value}))
		}
		ok = ok && wl.Correct
		res.Workloads = append(res.Workloads, wl)
	}
	res.Print(os.Stdout)
	if *outPath != "" {
		if err := res.Save(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench run:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench run: an oracle failed")
		return 1
	}
	return 0
}

// child runs one contract invocation in a new process and parses the result
// line and the info line it prints. A run that exits 1 after printing a
// result (an oracle failed) is returned as a result, not as an error.
func child(self, workload string, seed int64, seconds float64, trace int) (resultLine, map[string]float64, error) {
	var line resultLine
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &line) != nil {
		if runErr != nil {
			return line, nil, runErr
		}
		return line, nil, fmt.Errorf("no result line in the run's output")
	}
	info := map[string]float64{}
	if raw, found := bytes.CutPrefix(lines[len(lines)-2], []byte("info ")); found {
		if err := json.Unmarshal(raw, &info); err != nil {
			return line, nil, fmt.Errorf("info line: %w", err)
		}
	}
	return line, info, nil
}

// commit names the commit being measured when the working directory is a
// git checkout (the driver's is not).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles is `bench compare old.json new.json`.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	old, err := report.Load(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	cur, err := report.Load(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	gated, layers, regressed := report.Compare(old, cur)
	report.WriteTable(os.Stdout, gated, layers)
	if regressed {
		return 1
	}
	return 0
}
