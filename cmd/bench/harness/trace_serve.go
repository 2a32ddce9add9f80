package harness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/span"
	"github.com/bingo-search/bingo/cmd/bench/stat"
	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// serveReplay is the staged serve replay: ReplayQueries unused pool
// queries taken through every nesting level, single-threaded, one span per
// call, so that each level's self time falls out by subtraction. Each level
// is its own pass over all the queries: a segment reader keeps the block it
// decompressed last, so a query repeated immediately would find its hits'
// blocks still there and the inner levels would look cheaper than the outer
// ones; a full pass in between leaves every level equally cold. Each pass
// starts from a collected heap.
type serveReplay struct {
	*replay
	r       *run
	s       *serving
	queries []string
	reqs    []*http.Request
	client  *http.Client
	// respBytes sums the round trips' response bodies.
	respBytes int64
}

// traceServe runs the staged serve replay for the stack under test.
func (r *run) traceServe(ctx context.Context, s *serving, qc *queryCursor) error {
	n := r.sc.ReplayQueries
	off := qc.take(n)
	sr := &serveReplay{replay: newReplay(r.rec, "replay.serve"), r: r, s: s, client: &http.Client{}}
	defer sr.end()
	defer sr.client.CloseIdleConnections()
	for i := 0; i < n; i++ {
		q := qc.at(off + i)
		sr.queries = append(sr.queries, q)
		sr.reqs = append(sr.reqs, httptest.NewRequest(http.MethodGet, "/search?"+rawQuery(q), nil))
	}
	var err error
	if s.sharded {
		err = sr.sharded(ctx)
	} else {
		err = sr.local(ctx)
	}
	if err != nil {
		return err
	}
	r.layer["serve.resp_bytes_per_q"] = ratio(float64(sr.respBytes), float64(n))
	r.layer["serve.parse_ns_per_q"] = sr.get("serve.parse").medianNs()
	return nil
}

// nested reads the replay's round trips off the span tree: per query, the
// round trip's self time — what HTTP and the loopback cost outside the
// handler, because the listener recorded its handler span as a child of
// the client's round-trip span — and how long that handler ran.
func (sr *serveReplay) nested() (httpSelf, handler []float64) {
	spans := sr.r.rec.Spans()
	self := span.Self(spans)
	httpSelf = make([]float64, len(sr.queries))
	handler = make([]float64, len(sr.queries))
	for _, sp := range spans {
		switch {
		case sp.Name == "serve.roundtrip":
			httpSelf[sp.Req] = float64(self[sp.ID])
		case sp.Name == "serve.handler" && sp.Parent != 0:
			handler[sp.Req] = float64(sp.End - sp.Start)
		}
	}
	return httpSelf, handler
}

// roundTrip is level 0: one GET through the front listener, tagged so the
// listener-side handler span names this span as its parent.
func (sr *serveReplay) roundTrip(ctx context.Context, i int) error {
	var ferr error
	sr.do("serve.roundtrip", i, func(id int) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, sr.s.front.URL+"/search?"+rawQuery(sr.queries[i]), nil)
		if err != nil {
			ferr = err
			return
		}
		req.Header.Set(reqHeader, strconv.Itoa(i))
		req.Header.Set(parentHeader, strconv.Itoa(id))
		resp, err := sr.client.Do(req)
		if err != nil {
			ferr = err
			return
		}
		nb, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sr.respBytes += nb
	})
	if ferr != nil {
		return fmt.Errorf("replay round trip %q: %w", sr.queries[i], ferr)
	}
	sr.do("serve.parse", i, func(int) { serve.ParseQuery(sr.reqs[i], 100) })
	return nil
}

// local takes the single-process stack apart, per query: the HTTP round
// trip; API.HandleSearch on a recorder (a second API over the same engine,
// so its cache is as cold as the first one's was);
// Engine.SearchWithEpochs; Planner.Plan, Partition.Score and
// Partition.Gather over a partition on the same store; then the segment
// tier's read primitives and the serving layers' own primitives alone.
func (sr *serveReplay) local(ctx context.Context) error {
	r, s, n := sr.r, sr.s, len(sr.queries)
	st := s.stores[0]
	gateOpts := admit.Options{MaxInFlight: maxInFlight, MaxQueue: maxQueue, QueueTimeout: queueTimeout, RetryAfter: retryAfter}
	api := serve.New(st, s.engine, serve.Options{Cache: servecache.New(cacheEntries), Admission: admit.New(gateOpts)})

	part := search.NewPartition(st)
	stats := part.Stats()
	const version = "bench"
	if err := part.SetGlobal(version, stats.Pin, stats.NumDocs, stats.Terms, stats.DF); err != nil {
		return fmt.Errorf("replay partition: %w", err)
	}
	df := make(map[string]int, len(stats.Terms))
	for i, t := range stats.Terms {
		df[t] = stats.DF[i]
	}
	idf := vsm.TableFromDocFreq(df, stats.NumDocs)
	planner := search.NewPlanner()

	runtime.GC()
	for i := range sr.queries {
		if err := sr.roundTrip(ctx, i); err != nil {
			return err
		}
	}
	runtime.GC()
	for i := range sr.queries {
		sr.do("serve.handle_search", i, func(int) { api.HandleSearch(httptest.NewRecorder(), sr.reqs[i]) })
	}
	runtime.GC()
	for i, q := range sr.queries {
		sr.do("search.engine", i, func(int) { s.engine.SearchWithEpochs(search.Query{Text: q, Limit: 10}) })
	}
	runtime.GC()
	var candidates, survivors int
	var termList []string
	for i, q := range sr.queries {
		var plan *search.Plan
		ok := false
		sr.do("search.plan", i, func(int) { plan, ok = planner.Plan(search.Query{Text: q, Limit: 10}, idf) })
		if !ok {
			continue
		}
		var ss search.ScoreStats
		var err error
		sr.do("search.score", i, func(int) { ss, err = part.Score(version, plan) })
		if err != nil {
			return fmt.Errorf("replay score %q: %w", q, err)
		}
		sr.do("search.gather", i, func(int) { _, err = part.Gather(version, plan, ss.MaxCos, ss.MaxConf, ss.MaxAuth) })
		if err != nil {
			return fmt.Errorf("replay gather %q: %w", q, err)
		}
		candidates += ss.Candidates
		survivors += ss.Survivors
		for _, t := range plan.Terms {
			termList = append(termList, t.Term)
		}
	}

	// The segment tier's two read primitives: a term's postings, and a cold
	// document's term vector.
	var ids []store.DocID
	for i, t := range termList {
		sr.do("segment.postings", i, func(int) {
			st.VisitPostings(t, func(doc store.DocID, _ int) {
				if len(ids) < 4*n {
					ids = append(ids, doc)
				}
			})
		})
	}
	var buf []store.TermTF
	vecs := 0
	for i, id := range ids {
		sr.do("segment.termvec", i, func(int) {
			var ok bool
			if buf, ok = st.ColdDocTerms(id, buf); ok {
				vecs++
			}
		})
	}

	// admit, servecache: one acquire/release; a miss that computes nothing,
	// then the hit on the same key.
	gate := admit.New(gateOpts)
	cache := servecache.New(cacheEntries)
	epochs := make([]int64, st.NumShards())
	for i := range epochs {
		epochs[i] = st.ShardEpoch(i)
	}
	value := any("cached")
	lookup := func(q string) {
		key := servecache.Key(epochs, servecache.KeyParams{Text: servecache.NormalizeText(q), CosW: 1, K: 10})
		cache.GetOrCompute(key, func() (any, string) { return value, "" })
	}
	for i, q := range sr.queries {
		sr.do("admit.acquire", i, func(int) {
			if release, err := gate.Acquire(ctx); err == nil {
				release()
			}
		})
		sr.do("servecache.miss", i, func(int) { lookup(q) })
		sr.do("servecache.hit", i, func(int) { lookup(q) })
	}

	roundtrip := sr.get("serve.roundtrip")
	handle, engine := sr.get("serve.handle_search"), sr.get("search.engine")
	plan, score, gather := sr.get("search.plan"), sr.get("search.score"), sr.get("search.gather")
	perQueryHTTP, _ := sr.nested()
	httpSelf := stat.Median(perQueryHTTP)
	handlerSelf := pairedMedian(handle.durs, engine.durs)
	// Gather replays the scatter Score already ran (two phases are what
	// exactness costs a distributed query); in one process the engine
	// scatters once, so gather's own share is what it adds on top.
	gatherSelf := pairedMedian(gather.durs, score.durs)
	r.layer["serve.http_ns_per_q"] = httpSelf
	r.layer["serve.handler_self_ns_per_q"] = handlerSelf
	r.layer["serve.allocs_per_q"] = handle.allocsPer(n)
	r.layer["search.allocs_per_q"] = engine.allocsPer(n)
	r.layer["search.plan_ns_per_q"] = plan.medianNs()
	r.layer["search.score_ns_per_q"] = score.medianNs()
	r.layer["search.gather_ns_per_q"] = gatherSelf
	r.layer["search.candidates_per_q"] = ratio(float64(candidates), float64(n))
	r.layer["search.survivors_per_q"] = ratio(float64(survivors), float64(n))
	r.layer["segment.postings_ns_per_term"] = sr.get("segment.postings").medianNs()
	r.layer["segment.termvec_ns_per_doc"] = sr.get("segment.termvec").medianNs()
	r.layer["admit.ns_per_acquire"] = sr.get("admit.acquire").medianNs()
	r.layer["servecache.hit_ns"] = sr.get("servecache.hit").medianNs()
	r.layer["servecache.miss_overhead_ns"] = sr.get("servecache.miss").medianNs()
	// The budget closes when the layers found by taking the stack apart add
	// up to the round trip measured whole.
	layers := httpSelf + handlerSelf + plan.medianNs() + score.medianNs() + gatherSelf
	r.layer["bench.budget_gap_share"] = ratio(roundtrip.medianNs()-layers, roundtrip.medianNs())
	return nil
}

// sharded takes the sharded stack apart, per query: the HTTP round trip;
// Coordinator.Search; then per shard rpc.Client.Score and Gather next to
// the same Partition calls made directly on the shard servers' partitions.
func (sr *serveReplay) sharded(ctx context.Context) error {
	r, s, n := sr.r, sr.s, len(sr.queries)
	// The coordinator's plan needs the merged idf table, which it keeps to
	// itself; rebuild it the way Sync does, from the partitions' integer
	// document frequencies.
	df := map[string]int{}
	total := 0
	for _, srv := range s.rpcSrvs {
		stats := srv.Partition().Stats()
		total += stats.NumDocs
		for i, t := range stats.Terms {
			df[t] += stats.DF[i]
		}
	}
	idf := vsm.TableFromDocFreq(df, total)
	planner := search.NewPlanner()
	version := s.coord.Version()
	clients := s.coord.Clients()

	runtime.GC()
	rpcBytes := -s.rpcBytes.Load()
	for i := range sr.queries {
		if err := sr.roundTrip(ctx, i); err != nil {
			return err
		}
	}
	rpcBytes += s.rpcBytes.Load()
	runtime.GC()
	for i, q := range sr.queries {
		var err error
		sr.do("coord.search", i, func(int) { _, err = s.coord.Search(ctx, search.Query{Text: q, Limit: 10}) })
		if err != nil {
			return fmt.Errorf("replay coordinator search %q: %w", q, err)
		}
	}
	runtime.GC()
	var candidates, survivors int
	critical := make([]float64, n) // per query: the slower shard's score RPC + the slower shard's gather RPC
	for i, q := range sr.queries {
		var err error
		var plan *search.Plan
		ok := false
		sr.do("search.plan", i, func(int) { plan, ok = planner.Plan(search.Query{Text: q, Limit: 10}, idf) })
		if !ok {
			continue
		}
		var maxCos, maxConf, maxAuth float64
		var slowest time.Duration
		// The RPC and the same call made directly run back to back, so
		// whichever goes second finds the blocks the first one read; the
		// order alternates with the query so the advantage cancels.
		rpcFirst := i%2 == 0
		for k, cl := range clients {
			var ss search.ScoreStats
			var derr error
			viaRPC := func() {
				t0 := time.Now()
				sr.do("rpc.score", i, func(int) { _, err = cl.Score(ctx, version, plan) })
				slowest = max(slowest, time.Since(t0))
			}
			direct := func() {
				sr.do("search.score", i, func(int) { ss, derr = s.rpcSrvs[k].Partition().Score(version, plan) })
			}
			if rpcFirst {
				viaRPC()
				direct()
			} else {
				direct()
				viaRPC()
			}
			if err != nil {
				return fmt.Errorf("replay rpc score %q: %w", q, err)
			}
			if derr != nil {
				return fmt.Errorf("replay direct score %q: %w", q, derr)
			}
			candidates += ss.Candidates
			survivors += ss.Survivors
			maxCos, maxConf, maxAuth = max(maxCos, ss.MaxCos), max(maxConf, ss.MaxConf), max(maxAuth, ss.MaxAuth)
		}
		critical[i] += float64(slowest)
		slowest = 0
		for k, cl := range clients {
			var derr error
			viaRPC := func() {
				t0 := time.Now()
				sr.do("rpc.gather", i, func(int) { _, err = cl.Gather(ctx, version, plan, maxCos, maxConf, maxAuth) })
				slowest = max(slowest, time.Since(t0))
			}
			direct := func() {
				sr.do("search.gather", i, func(int) {
					_, derr = s.rpcSrvs[k].Partition().Gather(version, plan, maxCos, maxConf, maxAuth)
				})
			}
			if rpcFirst {
				viaRPC()
				direct()
			} else {
				direct()
				viaRPC()
			}
			if err != nil {
				return fmt.Errorf("replay rpc gather %q: %w", q, err)
			}
			if derr != nil {
				return fmt.Errorf("replay direct gather %q: %w", q, derr)
			}
		}
		critical[i] += float64(slowest)
	}

	coordSearch := sr.get("coord.search")
	rpcScore, rpcGather := sr.get("rpc.score"), sr.get("rpc.gather")
	score, gather := sr.get("search.score"), sr.get("search.gather")
	perQueryHTTP, front := sr.nested()
	r.layer["serve.http_ns_per_q"] = stat.Median(perQueryHTTP)
	r.layer["serve.handler_self_ns_per_q"] = pairedMedian(front, coordSearch.durs)
	r.layer["coord.self_ns_per_q"] = pairedMedian(coordSearch.durs, critical)
	r.layer["rpc.score_overhead_ns"] = pairedMedian(rpcScore.durs, score.durs)
	r.layer["rpc.gather_overhead_ns"] = pairedMedian(rpcGather.durs, gather.durs)
	r.layer["rpc.bytes_per_q"] = ratio(float64(rpcBytes), float64(n))
	// Per query, both shards' direct calls: the scoring work of one
	// single-process query, split in two.
	shards := float64(len(clients))
	r.layer["search.plan_ns_per_q"] = sr.get("search.plan").medianNs()
	r.layer["search.score_ns_per_q"] = shards * score.medianNs()
	r.layer["search.gather_ns_per_q"] = shards * pairedMedian(gather.durs, score.durs)
	r.layer["search.candidates_per_q"] = ratio(float64(candidates), float64(n))
	r.layer["search.survivors_per_q"] = ratio(float64(survivors), float64(n))
	return nil
}
