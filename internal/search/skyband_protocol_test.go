//go:build unix

package search_test

import (
	"context"
	"net/http/httptest"
	"sort"
	"syscall"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
)

// BenchmarkQueryProtocol times one distributed query over the default
// world (see defaultWorld), two rpc shard servers on loopback, K = 10,
// for each weight class and both query protocols:
//
//   - search: one /rpc/v1/search per shard, then MergeSkybands — what the
//     coordinator runs;
//   - two-phase: /rpc/v1/score per shard, fold the maxima, /rpc/v1/gather
//     per shard, sort and truncate — what it ran before.
//
// Shards are called concurrently, as the coordinator calls them. Servers
// and clients share the process, so cpu-µs/q (user + system CPU per
// query, from getrusage) counts both sides of the wire; rows/q is the
// rows all shards shipped per query.
func BenchmarkQueryProtocol(b *testing.B) {
	const k = 10
	dw := buildDefaultWorld()
	clients := make([]*rpc.Client, len(dw.stores))
	parts := make([]*search.Partition, len(dw.stores))
	for i, st := range dw.stores {
		srv := rpc.NewServer(st)
		srv.SetReady(true)
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		parts[i] = srv.Partition()
		clients[i] = rpc.NewClient(hs.URL, rpc.ClientOptions{HedgeAfter: -1})
	}
	dw.sync(b, parts)
	planner := search.NewPlanner()
	ctx := context.Background()

	for _, c := range weightClasses {
		var plans []*search.Plan
		for _, q := range dw.queries {
			if plan, ok := dw.plan(planner, q, k, c.w); ok {
				plans = append(plans, plan)
			}
		}
		protocols := []struct {
			name string
			run  func(*search.Plan) int
		}{
			{"search", func(plan *search.Plan) int {
				sbs := make([]*search.Skyband, len(clients))
				fanOut(b, len(clients), func(i int) (err error) {
					sbs[i], err = clients[i].Search(ctx, worldVersion, plan)
					return err
				})
				rows := 0
				for _, sb := range sbs {
					rows += len(sb.URL)
				}
				if _, ok := search.MergeSkybands(plan.Weights, plan.Bounds, plan.Limit, sbs); !ok {
					b.Fatal("maxima exceed the plan's bounds")
				}
				return rows
			}},
			{"two-phase", func(plan *search.Plan) int {
				stats := make([]*search.ScoreStats, len(clients))
				fanOut(b, len(clients), func(i int) (err error) {
					stats[i], err = clients[i].Score(ctx, worldVersion, plan)
					return err
				})
				var maxCos, maxConf, maxAuth float64
				for _, st := range stats {
					maxCos, maxConf, maxAuth = max(maxCos, st.MaxCos), max(maxConf, st.MaxConf), max(maxAuth, st.MaxAuth)
				}
				hits := make([][]rpc.Hit, len(clients))
				fanOut(b, len(clients), func(i int) (err error) {
					hits[i], err = clients[i].Gather(ctx, worldVersion, plan, maxCos, maxConf, maxAuth)
					return err
				})
				var merged []rpc.Hit
				for _, h := range hits {
					merged = append(merged, h...)
				}
				sort.Slice(merged, func(a, b int) bool {
					if merged[a].Score != merged[b].Score {
						return merged[a].Score > merged[b].Score
					}
					return merged[a].URL < merged[b].URL
				})
				if len(merged) > plan.Limit {
					merged = merged[:plan.Limit]
				}
				return len(merged)
			}},
		}
		for _, p := range protocols {
			b.Run(c.name+"/"+p.name, func(b *testing.B) {
				for _, plan := range plans { // warm connections and pools
					p.run(plan)
				}
				rows := 0
				cpu0 := cpuTime(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows += p.run(plans[i%len(plans)])
				}
				b.StopTimer()
				b.ReportMetric(float64((cpuTime(b)-cpu0).Microseconds())/float64(b.N), "cpu-µs/q")
				b.ReportMetric(float64(rows)/float64(b.N), "rows/q")
			})
		}
	}
}

// fanOut runs call(0..n-1) concurrently and fails b on any error.
func fanOut(b *testing.B, n int, call func(i int) error) {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- call(i) }(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
