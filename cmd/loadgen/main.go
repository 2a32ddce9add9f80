// Command loadgen drives an open-loop /search load at a running portald
// through cmd/bench/loadgen, the benchmark's generator: latency is timed
// from each request's due time, so server queueing is never hidden. Per
// rate it prints the ok (2xx), shed (429) and error responses (anything
// else, including transport errors and requests the window left
// unfinished), and the ok ones' p50, p90 and p99 latency. Under
// -fail-on-errors it exits 1 on any error: the CI smoke contract.
//
//	loadgen -target http://127.0.0.1:8090 -rate 400,800,1600 -duration 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/loadgen"
	"github.com/bingo-search/bingo/cmd/bench/stat"
)

const (
	conns = 64              // keep-alive connections, and requests in flight at most
	grace = 5 * time.Second // how long after its window a request may still finish
)

// mix is the built-in query mix: head terms a crawled portal plausibly
// holds, then tail variants. Arrival i asks mix[Zipf(1, n, len(mix), 1.1)(i)],
// so earlier entries are more popular. An empty result list is still a
// served response, so the terms need not match the corpus.
var mix = func() []string {
	qs := []string{"database systems", "recovery", "transaction recovery", "index structures",
		"query processing", "crawler", "classification", "portal search"}
	for i := 0; i < 24; i++ {
		qs = append(qs, fmt.Sprintf("database topic%d", i))
	}
	for i, q := range qs {
		qs[i] = url.Values{"q": {q}, "k": {"10"}}.Encode()
	}
	return qs
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run drives one window per rate and returns the exit status: 2 for bad
// flags, 1 under -fail-on-errors when a response was an error, else 0.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of the server under test (required)")
	rates := fs.String("rate", "500", "offered arrival rate in requests/second, or a comma-separated sweep")
	duration := fs.Duration("duration", 5*time.Second, "length of each rate's window")
	failOnErrors := fs.Bool("fail-on-errors", false, "exit 1 if any response was neither 2xx nor 429")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sweep []float64
	for _, f := range strings.Split(*rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "loadgen: bad -rate entry %q\n", f)
			return 2
		}
		sweep = append(sweep, v)
	}
	if *target == "" || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: need -target and a positive -duration")
		return 2
	}

	failures := 0
	for _, rate := range sweep {
		pick := loadgen.Zipf(1, loadgen.Offered(rate, *duration), len(mix), 1.1)
		var shed atomic.Int64
		res := loadgen.Run(context.Background(), loadgen.Config{
			Target: strings.TrimSuffix(*target, "/"), Rate: rate, Duration: *duration, Conns: conns, Grace: grace,
			Query: func(i int) string { return mix[pick(i)] },
			Observe: func(_ int, _, _, _ time.Time, status int) {
				if status == http.StatusTooManyRequests {
					shed.Add(1)
				}
			},
		})
		errs := res.Failed - int(shed.Load()) // Failed is every non-2xx
		fmt.Fprintf(stdout, "rate %g/s: offered %d, %d ok, %d shed, %d errors; p50 %.1f ms p90 %.1f ms p99 %.1f ms\n",
			rate, res.Offered, res.OK, shed.Load(), errs,
			stat.Percentile(res.LatencyMs, 50), stat.Percentile(res.LatencyMs, 90), stat.Percentile(res.LatencyMs, 99))
		failures += errs
	}
	if *failOnErrors && failures > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: observed responses that were neither 2xx nor 429")
		return 1
	}
	return 0
}
