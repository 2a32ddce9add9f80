package harness

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/loadgen"
	"github.com/bingo-search/bingo/cmd/bench/stat"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// queryCursor hands out pool positions so that no two phases of a run ask
// the same query: the pool is a stream every consumer takes the next slice
// of.
type queryCursor struct {
	pool []string
	next int
}

// take reserves n consecutive pool positions and returns the first.
func (q *queryCursor) take(n int) int {
	off := q.next
	q.next += n
	return off
}

// at returns the pool query at position i, wrapping if the run outgrew the
// pool (which only the tiny test scale does).
func (q *queryCursor) at(i int) string { return q.pool[i%len(q.pool)] }

// windowResult is one timed window: the generator's account plus what the
// process spent and counted while it ran.
type windowResult struct {
	loadgen.Result
	// cpuS is the process CPU time over the window — generator, server,
	// coordinator and shard servers included.
	cpuS float64
	reg  registry // registry change over the window
}

// windowsResult is what the two timed windows of a workload measured.
type windowsResult struct {
	a, b windowResult
	// freshMs holds flush-returned → marker-visible, per churn flush.
	freshMs []float64
}

func (w windowsResult) qPerCPUSec() float64 {
	return ratio(float64(w.a.OK+w.b.OK), w.a.cpuS+w.b.cpuS)
}

// reg returns the registry change over both windows.
func (w windowsResult) reg() registry { return w.a.reg.plus(w.b.reg) }

// windowPlan is the arrival plan of the two windows.
type windowPlan struct {
	rates      Rates
	durA, durB time.Duration
	// churn, when non-nil, writes beside the reads, and the reads are
	// serve-churn's cache-friendly Zipf stream over the head of the pool;
	// otherwise every arrival takes the next unused pool query.
	churn *churnWriter
}

// runWindows drives window A at the low rate, then window B at the high
// rate, against s. Compaction is idle when each window starts.
func (r *run) runWindows(ctx context.Context, s *serving, qc *queryCursor, plan windowPlan) (windowsResult, error) {
	var res windowsResult
	if plan.churn != nil {
		plan.churn.start(ctx, plan.durA+plan.durB)
	}
	var err error
	if res.a, err = r.window(ctx, s, qc, 0, plan.rates.Lo, plan.durA, plan); err != nil {
		return res, err
	}
	if res.b, err = r.window(ctx, s, qc, 1, plan.rates.Hi, plan.durB, plan); err != nil {
		return res, err
	}
	if plan.churn != nil {
		res.freshMs = plan.churn.wait()
	}
	for _, w := range []windowResult{res.a, res.b} {
		r.ops(w.Offered, w.Failed, "requests")
	}
	return res, nil
}

// lateFloorMs is the generator lateness the validity rule always tolerates:
// generator and server share the process and its two cores, the Go runtime
// lets a goroutine run for 10 ms before it preempts it, so a timer wake-up
// can wait a full slice behind two busy handlers without anything being
// wrong. Two slices is a stall.
const lateFloorMs = 20

// window runs one open-loop window. A window A whose generator ran late
// (late p99 above a fifth of the latency median, and above lateFloorMs)
// says more about the generator than about the program: it is marked
// invalid in Info and run once more, and the repeat is what counts. Window
// B (ord 1) is meant to queue — with Conns connections a slow response makes the next arrival start late
// by design, and that wait is in its latency — and under churn the reserve
// lasts for one pass only, so neither is repeated.
func (r *run) window(ctx context.Context, s *serving, qc *queryCursor, ord int, rate float64, dur time.Duration, plan windowPlan) (windowResult, error) {
	var res windowResult
	label := string("ab"[ord])
	for attempt := 0; attempt < 2; attempt++ {
		if plan.churn == nil {
			// The churn writer freezes and compacts as it goes; everywhere
			// else a merge running into a window would be left over from
			// set-up, so wait it out.
			if _, err := s.settle(); err != nil {
				return res, err
			}
		}
		n := loadgen.Offered(rate, dur)
		var index func(i int) int
		if plan.churn != nil {
			index = loadgen.Zipf(r.opt.Seed+int64(ord), n, zipfHead, zipfS)
		} else {
			index = loadgen.Distinct(qc.take(n), len(qc.pool))
		}
		cfg := loadgen.Config{
			Target:   s.front.URL,
			Rate:     rate,
			Duration: dur,
			Conns:    Conns(),
			Query:    func(i int) string { return rawQuery(qc.at(index(i))) },
		}
		if r.rec != nil {
			base := r.reqBase // request ids stay unique across windows
			r.reqBase += n
			cfg.Header = func(i int) (string, string) { return reqHeader, strconv.Itoa(base + i) }
			cfg.Observe = func(i int, due, sent, done time.Time, status int) {
				if status == 0 {
					return
				}
				id := r.rec.Add("loadgen.request."+label, 0, base+i, due, done)
				r.rec.Add("loadgen.roundtrip", id, base+i, sent, done)
			}
		}
		// Every window starts from a collected heap, so that how much garbage
		// the phase before it left behind is not part of its CPU time.
		runtime.GC()
		before, c0 := readRegistry(), cpuSeconds()
		res.Result = loadgen.Run(ctx, cfg)
		res.cpuS = cpuSeconds() - c0
		res.reg = readRegistry().since(before)
		late, p50 := res.LateP99(), res.P50()
		r.logf("window %s: %.0f/s × %v: offered %d ok %d failed %d p50 %.3f ms p99 %.3f ms late p99 %.3f ms, %.2fs cpu",
			label, rate, dur, res.Offered, res.OK, res.Failed, p50, res.P99(), late, res.cpuS)
		if late <= max(0.2*p50, lateFloorMs) || ord > 0 || plan.churn != nil {
			return res, nil
		}
		r.out.Info["window.a.invalid"]++
		r.logf("window %s invalid: generator late p99 %.3f ms (p50 %.3f ms)", label, late, p50)
	}
	return res, nil
}

// reportWindows turns the two windows into the serving metrics, end-to-end
// or per-layer depending on the run.
func (r *run) reportWindows(plan windowPlan, res windowsResult) {
	r.sample("q_per_cpu_s", res.qPerCPUSec())
	r.sample("latency_p50_ms", res.a.P50())
	r.out.Info["window.a.rate"] = plan.rates.Lo
	r.out.Info["window.b.rate"] = plan.rates.Hi
	r.out.Info["window.a.seconds"] = plan.durA.Seconds()
	r.out.Info["window.b.seconds"] = plan.durB.Seconds()
	r.out.Info["window.a.p99_ms"] = res.a.P99()
	r.out.Info["window.b.p99_ms"] = res.b.P99()
	r.out.Info["window.b.p50_ms"] = res.b.P50()
	r.out.Info["window.late_p99_ms"] = max(res.a.LateP99(), res.b.LateP99())
	if len(res.freshMs) > 0 {
		r.out.Info["churn.fresh_lag_p50_ms"] = stat.Median(res.freshMs)
	}
	if !r.opt.Trace {
		return
	}
	r.layer["loadgen.late_p99_ms"] = max(res.a.LateP99(), res.b.LateP99())
	r.layer["loadgen.latency_p99_ms"] = res.a.P99()
	r.layer["loadgen.latency_p99_ms.b"] = res.b.P99()
	r.layer["loadgen.loaded_p50_ms"] = res.b.P50()
	r.layer["loadgen.fresh_lag_p50_ms"] = stat.Median(res.freshMs)
	d := res.reg()
	served := float64(res.a.OK + res.b.OK)
	r.layer["serve.resp_bytes_per_q"] = ratio(float64(res.a.RespBytes+res.b.RespBytes), served)
	r.layer["servecache.hit_share"] = ratio(d.c("servecache_hits_total"), d.c("servecache_hits_total")+d.c("servecache_misses_total"))
	r.layer["servecache.evictions"] = d.c("servecache_evictions_total")
	r.layer["servecache.collapsed"] = d.c("servecache_collapsed_total")
	r.layer["admit.shed_share"] = ratio(d.c("admit_shed_total"), d.c("admit_shed_total")+d.c("admit_admitted_total"))
	r.layer["admit.wait_ms_sum"] = float64(d.histSum["admit_wait_nanos"]) / 1e6
	r.layer["search.snapshot_rebuilds"] = d.c("search_snapshot_rebuilds_total")
	r.layer["search.stale_serves"] = d.c("search_stale_serves_total")
	if plan.churn != nil {
		r.layer["search.snapshot_build_ms"] = ratio(float64(d.histSum["search_snapshot_build_nanos"])/1e6, float64(d.histN["search_snapshot_build_nanos"]))
		r.layer["search.docs_rebuilt_per_flush"] = ratio(d.c("search_shard_docs_rebuilt_total"), float64(plan.churn.flushes()))
		r.layer["store.wal_fsyncs"] = float64(d.histN["wal_fsync_nanos"])
		r.layer["store.wal_fsync_ms_sum"] = float64(d.histSum["wal_fsync_nanos"]) / 1e6
	}
	r.layer["rpc.calls_per_q"] = ratio(d.c("rpc_client_requests_total"), d.c("coord_queries_total"))
	r.layer["rpc.retries"] = d.c("rpc_client_retries_total")
	r.layer["rpc.hedges"] = d.c("rpc_client_hedges_total")
	r.layer["coord.degraded_share"] = ratio(d.c("coord_degraded_total"), d.c("coord_queries_total"))
}

// warm sends the warm-up pool through /search so caches are filled, the
// first snapshot is built and connections and pools exist before anything
// is timed.
func (r *run) warm(s *serving, warm []string) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, q := range warm {
		status, _, _, err := s.search(client, q)
		if err != nil {
			return fmt.Errorf("warm-up query %q: %w", q, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up query %q: status %d", q, status)
		}
	}
	return nil
}

// churnWriter is serve-churn's write side: one goroutine that, on a fixed
// schedule, flushes FlushDocs reserve documents through a workspace — one
// of them carrying a unique marker word — and then polls /search for the
// marker every 5 ms until the document comes back.
type churnWriter struct {
	s       *serving
	st      *store.Store
	reserve []store.Document
	links   map[string][]store.Link
	sc      Scale
	// from and to bound the flushes this writer performs: all of them in an
	// untraced run; a traced run gives the first half to the untraced
	// reference windows and the second half to the traced ones.
	from, to int

	wg      sync.WaitGroup
	freshMs []float64
	missing int // markers that never became visible
	err     error
}

func newChurnWriter(s *serving, c *servingCorpus, sc Scale, from, to int) *churnWriter {
	return &churnWriter{s: s, st: s.stores[0], reserve: c.reserve, links: c.links, sc: sc, from: from, to: to}
}

// flushes returns how many flushes the writer performs.
func (c *churnWriter) flushes() int { return c.to - c.from }

// start launches the writer: its k-th flush happens (k+½)/flushes of the
// way through total, so all of them land inside the timed windows.
func (c *churnWriter) start(ctx context.Context, total time.Duration) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t0 := time.Now()
		pipe := textproc.NewPipeline()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		period := total / time.Duration(c.flushes())
		for f := c.from; f < c.to; f++ {
			select {
			case <-time.After(time.Until(t0.Add(period/2 + time.Duration(f-c.from)*period))):
			case <-ctx.Done():
				c.err = ctx.Err()
				return
			}
			batch := c.reserve[f*c.sc.FlushDocs : (f+1)*c.sc.FlushDocs]
			// Sized past the batch so nothing flushes before Flush: one
			// flush, one WAL fsync per touched shard, as a crawler's or a
			// shard server's batch is applied.
			rows := len(batch)
			for _, d := range batch {
				rows += len(c.links[d.URL])
			}
			ws := c.st.NewWorkspace(rows + 1)
			var marker string
			for i, d := range batch {
				if i == 0 {
					d, marker = markerDoc(d, f, pipe)
				}
				ws.Add(d)
				for _, l := range c.links[d.URL] {
					ws.AddLink(l)
				}
			}
			if err := ws.Flush(); err != nil {
				c.err = fmt.Errorf("churn flush %d: %w", f, err)
				return
			}
			flushed := time.Now()
			visible := false
			for time.Since(flushed) < 5*time.Second {
				_, reply, _, err := c.s.search(client, marker)
				if err == nil && len(reply.Hits) > 0 && reply.Hits[0].URL == batch[0].URL {
					visible = true
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if visible {
				c.freshMs = append(c.freshMs, float64(time.Since(flushed))/float64(time.Millisecond))
			} else {
				c.missing++
			}
		}
	}()
}

// wait returns the freshness lags once the writer is done.
func (c *churnWriter) wait() []float64 {
	c.wg.Wait()
	return c.freshMs
}
