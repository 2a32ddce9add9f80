// Package coord is the stateless query coordinator of a distributed BINGO!
// deployment: it owns no documents, only rpc.Clients to N shard servers,
// and makes the fleet answer queries bit-identically to one process
// holding all N partitions locally.
//
// Three responsibilities:
//
//   - Stats sync: pull every partition's integer document frequencies,
//     merge them (integer addition — exact), assign a fresh version, and
//     push the merged df + global doc count back so each partition builds
//     its norms under the global idf table.
//
//   - Scatter-gather queries: compile the query plan once against the
//     merged idf (search.Planner), ask every shard once for its local
//     component maxima and K-skyband rows, then reduce the maxima and rank
//     the rows under the engine's score-desc/URL-asc total order
//     (search.MergeSkybands). A version conflict from any shard triggers
//     one stats resync and one retry; a dead shard degrades the answer
//     (Degraded + Missing) instead of failing it. The Coordinator is a
//     serve.Searcher, so portald -shards answers /search through the same
//     serve.API as a single process.
//
//   - Ingest routing: the Router (see ingest.go) implements store.Sink and
//     routes a crawl store's rows to shard servers by the same URL hash the store
//     uses for local shard placement.
package coord

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// Coordinator traffic: query volume and latency, degraded answers and
// all-shards-down failures, resyncs (version-conflict recoveries), sync
// round counts, and authority rounds that missed some shard's links (the
// answers weighting authority under them are degraded). Shard-level RPC
// health lives in the rpc_client_*
// metrics; these are the query-level rollups OPERATIONS.md triages from.
var (
	mQueries     = metrics.NewCounter("coord_queries_total")
	mQueryErrors = metrics.NewCounter("coord_query_errors_total")
	mQueryNanos  = metrics.NewHistogram("coord_query_nanos")
	mDegraded    = metrics.NewCounter("coord_degraded_total")
	mAllDown     = metrics.NewCounter("coord_all_shards_down_total")
	mResyncs     = metrics.NewCounter("coord_resyncs_total")
	mSyncs       = metrics.NewCounter("coord_syncs_total")
	mSyncErrors  = metrics.NewCounter("coord_sync_errors_total")
	mAuthPartial = metrics.NewCounter("coord_auth_partial_total")
	mBoundMisses = metrics.NewCounter("coord_bound_misses_total")
)

// ErrAllShardsDown reports a query that could not reach a single shard
// server: there is no partial result to degrade to. It wraps
// serve.ErrUnavailable, so the front door answers 503.
var ErrAllShardsDown = fmt.Errorf("coord: no shard server reachable: %w", serve.ErrUnavailable)

// ErrNoShards reports a Coordinator built with an empty address list.
var ErrNoShards = errors.New("coord: no shard addresses")

// Options tunes a Coordinator.
type Options struct {
	// QueryTimeout bounds one RPC attempt against a shard (default 5s).
	QueryTimeout time.Duration
	// HedgeAfter is the slow-shard hedge delay for idempotent RPCs
	// (default 250ms; <0 disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval is how often the background prober pings shard servers
	// to reintegrate recovered ones without waiting for a query-triggered
	// resync (default 2s; <0 disables the prober).
	ProbeInterval time.Duration
}

// shardState is the coordinator's bookkeeping for one shard server.
type shardState struct {
	client *rpc.Client
	// synced reports whether the server holds the coordinator's current
	// global-stats version; guarded by Coordinator.mu.
	synced bool
	// terms is the server's vocabulary from the last successful stats pull,
	// used to restrict the global df push; guarded by Coordinator.mu.
	terms []string
}

// Coordinator fans queries out over shard servers and merges the answers.
// It is safe for concurrent use; all methods may be called while a Sync is
// in flight (queries keep using the previous version, which every shard
// still serves).
type Coordinator struct {
	shards  []*shardState
	planner *search.Planner
	opt     Options
	brk     *fetch.BreakerSet
	// bootID is a random per-process nonce baked into every version string
	// this coordinator assigns. Versions are therefore globally unique
	// across coordinator incarnations: a restarted (or second) coordinator
	// can never re-emit a version an earlier one already installed, so a
	// shard holding a stale same-numbered view can never mistake the new
	// push for a duplicate and silently keep serving the stale view.
	bootID string

	mu        sync.RWMutex
	version   string
	totalDocs int
	idf       *vsm.IDFTable
	confBound float64 // largest confidence in version's stats
	authVer   string  // version authority scores were pushed under
	authBound float64 // largest score of the authVer round
	// authMissing lists the shards whose links or push the authVer round
	// lacked; the prober retries the round while it is non-empty.
	authMissing []int
	syncSeq     int

	syncMu sync.Mutex // serializes Sync and SyncAuth rounds

	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a coordinator over the given shard-server base addresses
// (e.g. "http://127.0.0.1:7001"). The order of addrs is the partition
// order; it must match the order ingest was routed with.
func New(addrs []string, opt Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, ErrNoShards
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = 2 * time.Second
	}
	// Snappier breaker than the crawl default: a dead shard should trip to
	// fast-fail (degraded answers, no per-query timeout stalls) within a
	// few queries, and a restarted shard should be re-probed within
	// seconds, not the crawler's 15s host cool-down.
	brk := fetch.NewBreakerSet(fetch.BreakerConfig{FailureThreshold: 3, OpenFor: 2 * time.Second})
	var nonce [6]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("coord: generating boot nonce: %w", err)
	}
	c := &Coordinator{
		planner: search.NewPlanner(),
		opt:     opt,
		brk:     brk,
		bootID:  hex.EncodeToString(nonce[:]),
	}
	for _, a := range addrs {
		c.shards = append(c.shards, &shardState{
			client: rpc.NewClient(a, rpc.ClientOptions{
				Timeout:    opt.QueryTimeout,
				HedgeAfter: opt.HedgeAfter,
				Breaker:    brk,
			}),
		})
	}
	return c, nil
}

// NewAPI is the coordinator's /search front door with no cache and no
// admission. It stays for cmd/bench; portald -shards builds serve.NewFor
// over the coordinator with both.
func NewAPI(c *Coordinator) *serve.API { return serve.NewFor(c, serve.Options{}) }

// NumShards returns the number of shard servers the coordinator routes
// over.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Addrs returns the shard-server base addresses in partition order.
func (c *Coordinator) Addrs() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.client.Addr()
	}
	return out
}

// Clients returns the per-shard RPC clients in partition order (the ingest
// Router and tests share them so breaker state is common).
func (c *Coordinator) Clients() []*rpc.Client {
	out := make([]*rpc.Client, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.client
	}
	return out
}

// Version returns the current global-stats version ("" before the first
// successful Sync).
func (c *Coordinator) Version() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Provenance is the current version: every shard's view under it is
// pinned at its Stats call, so a complete answer under it never changes.
func (c *Coordinator) Provenance() serve.Provenance {
	return serve.Provenance{Version: c.Version()}
}

// TotalDocs returns the global document count of the current version.
func (c *Coordinator) TotalDocs() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.totalDocs
}

// Sync runs one stats round: pull every reachable partition's integer df,
// merge, assign a fresh version, and push the merged statistics back.
// Unreachable servers are left unsynced — queries degrade around them
// until a later Sync (query-triggered or prober-triggered) reintegrates
// them. Sync fails only when no server at all contributed.
func (c *Coordinator) Sync(ctx context.Context) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	mSyncs.Inc()

	type pulled struct {
		i     int
		stats *search.PartitionStats
		err   error
	}
	ch := make(chan pulled, len(c.shards))
	for i, s := range c.shards {
		go func(i int, s *shardState) {
			st, err := s.client.Stats(ctx)
			ch <- pulled{i: i, stats: st, err: err}
		}(i, s)
	}
	stats := make([]*search.PartitionStats, len(c.shards))
	for range c.shards {
		p := <-ch
		if p.err == nil {
			stats[p.i] = p.stats
		}
	}

	// Integer df merge: exact by construction, same arithmetic as the
	// engine's mergeDocFreq across local shards.
	df := make(map[string]int)
	totalDocs := 0
	reachable := 0
	confBound := 0.0
	for _, st := range stats {
		if st == nil {
			continue
		}
		reachable++
		totalDocs += st.NumDocs
		if st.MaxConf > confBound {
			confBound = st.MaxConf
		}
		for j, t := range st.Terms {
			df[t] += st.DF[j]
		}
	}
	if reachable == 0 {
		mSyncErrors.Inc()
		return ErrAllShardsDown
	}

	c.mu.Lock()
	c.syncSeq++
	version := fmt.Sprintf("g%s-%d", c.bootID, c.syncSeq)
	c.mu.Unlock()

	// Push the merged statistics, restricted to each server's vocabulary
	// (terms absent from a partition never score there). Each push echoes
	// the pin token of the stats pull it was merged from, so a server
	// whose pinned snapshot moved underneath us (another coordinator's
	// Stats) rejects the push instead of installing a skewed view.
	okCh := make(chan pulled, len(c.shards))
	for i, s := range c.shards {
		if stats[i] == nil {
			continue
		}
		go func(i int, s *shardState, st *search.PartitionStats) {
			terms := st.Terms
			dfs := make([]int, len(terms))
			for j, t := range terms {
				dfs[j] = df[t]
			}
			err := s.client.SetGlobal(ctx, version, st.Pin, totalDocs, terms, dfs)
			okCh <- pulled{i: i, err: err}
		}(i, s, stats[i])
	}
	synced := make([]bool, len(c.shards))
	pushed := 0
	for i := 0; i < reachable; i++ {
		p := <-okCh
		if p.err == nil {
			synced[p.i] = true
			pushed++
		}
	}
	if pushed == 0 {
		mSyncErrors.Inc()
		return ErrAllShardsDown
	}

	c.mu.Lock()
	c.version = version
	c.totalDocs = totalDocs
	c.idf = vsm.TableFromDocFreq(df, totalDocs)
	c.confBound = confBound
	for i, s := range c.shards {
		s.synced = synced[i]
		if stats[i] != nil {
			s.terms = stats[i].Terms
		}
	}
	c.mu.Unlock()
	return nil
}

// SyncAuth computes global HITS authority over the union of every synced
// partition's link edges and pushes the scores under the current version.
// Call after Sync when queries weight authority; Search also triggers it
// lazily. With every shard reachable the edge set — and therefore the
// scores — is identical to the single-process computation. A round that
// misses some shard's links or push still installs its scores, but counts
// in coord_auth_partial_total, and every authority-weighted answer under
// it is degraded with those shards listed as missing until a later round
// for the same version — the prober retries — reaches them all.
func (c *Coordinator) SyncAuth(ctx context.Context) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()

	c.mu.RLock()
	version := c.version
	targets := make([]int, 0, len(c.shards))
	for i, s := range c.shards {
		if s.synced {
			targets = append(targets, i)
		}
	}
	c.mu.RUnlock()
	if version == "" {
		return errors.New("coord: SyncAuth before first Sync")
	}
	if len(targets) == 0 {
		return ErrAllShardsDown
	}

	type edges struct {
		i    int
		resp *rpc.LinksResponse
		err  error
	}
	ch := make(chan edges, len(targets))
	for _, i := range targets {
		go func(i int) {
			resp, err := c.shards[i].client.Links(ctx)
			ch <- edges{i: i, resp: resp, err: err}
		}(i)
	}
	var links []store.Link
	var linkless []int
	for range targets {
		e := <-ch
		if e.err != nil {
			linkless = append(linkless, e.i)
			continue
		}
		for i := range e.resp.From {
			links = append(links, store.Link{From: e.resp.From[i], To: e.resp.To[i]})
		}
	}
	if len(linkless) == len(targets) {
		return ErrAllShardsDown
	}

	byURL := search.AuthorityFromLinks(links)
	urls := make([]string, 0, len(byURL))
	for u := range byURL {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	scores := make([]float64, len(urls))
	maxScore := 0.0
	for i, u := range urls {
		scores[i] = byURL[u]
		maxScore = max(maxScore, scores[i])
	}

	missing := linkless
	var firstErr error
	var wg sync.WaitGroup
	var pmu sync.Mutex
	for _, i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := c.shards[i].client.SetAuth(ctx, version, urls, scores)
			if err != nil {
				pmu.Lock()
				missing = append(missing, i)
				if firstErr == nil {
					firstErr = err
				}
				pmu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(missing) == len(linkless)+len(targets) {
		return firstErr
	}
	if len(missing) > 0 {
		mAuthPartial.Inc()
	}
	c.mu.Lock()
	c.authVer = version
	c.authBound = maxScore
	c.authMissing = missing
	c.mu.Unlock()
	return nil
}

// Search answers one query over the fleet with one RPC per shard. A
// version conflict from any shard (restart, stale view) triggers one stats
// resync and one retry; unreachable shards degrade the result instead of
// failing it. Every hit carries q's tenant: shards answer only its
// documents. The error cases are weights that are negative or not finite
// (search.ErrBadWeights), an unsynced coordinator that cannot complete its
// first sync, and a fleet with no reachable shard at all.
func (c *Coordinator) Search(ctx context.Context, q search.Query) (*serve.Answer, error) {
	mQueries.Inc()
	start := time.Now()
	defer mQueryNanos.ObserveSince(start)

	if err := q.Weights.Validate(); err != nil {
		mQueryErrors.Inc()
		return nil, err
	}
	res, err := c.searchAttempts(ctx, q)
	if err != nil {
		mQueryErrors.Inc()
		if errors.Is(err, ErrAllShardsDown) {
			mAllDown.Inc()
		}
		return nil, err
	}
	if res.Degraded {
		mDegraded.Inc()
	}
	return res, nil
}

// searchAttempts runs searchOnce with at most one conflict-triggered
// resync in between.
func (c *Coordinator) searchAttempts(ctx context.Context, q search.Query) (*serve.Answer, error) {
	for attempt := 0; ; attempt++ {
		res, conflict, err := c.searchOnce(ctx, q)
		if conflict && attempt == 0 {
			mResyncs.Inc()
			if serr := c.Sync(ctx); serr != nil {
				return nil, serr
			}
			continue
		}
		if conflict {
			return nil, errors.New("coord: version conflict persisted after resync")
		}
		return res, err
	}
}

// shardAnswer carries one shard's answer through the fan-out.
type shardAnswer struct {
	i   int
	sb  *search.Skyband
	err error
}

// searchOnce asks every synced shard once, against the current version,
// for its local maxima and K-skyband rows, then ranks the union.
// conflict=true asks the caller to resync and retry.
func (c *Coordinator) searchOnce(ctx context.Context, q search.Query) (*serve.Answer, bool, error) {
	c.mu.RLock()
	version := c.version
	idf := c.idf
	confBound := c.confBound
	authVer := c.authVer
	missing := map[int]bool{}
	var targets []int
	for i, s := range c.shards {
		if s.synced {
			targets = append(targets, i)
		} else {
			missing[i] = true
		}
	}
	c.mu.RUnlock()
	if version == "" {
		return nil, true, nil // never synced: resync path doubles as bootstrap
	}

	res := &serve.Answer{Hits: []serve.HitJSON{}, Provenance: serve.Provenance{Version: version}}
	plan, ok := c.planner.Plan(q, idf)
	if !ok {
		return res, false, nil
	}
	plan.Bounds = search.Bounds{Cos: search.UnitBound, Conf: confBound}
	if plan.Weights.Authority != 0 {
		if authVer != version {
			if err := c.SyncAuth(ctx); err != nil {
				return nil, false, err
			}
		}
		c.mu.RLock()
		if c.authVer == version {
			plan.Bounds.Auth = c.authBound
			for _, i := range c.authMissing {
				missing[i] = true
			}
		}
		c.mu.RUnlock()
	}

	parts, answered, conflict := c.ask(ctx, version, plan, targets, missing)
	if conflict {
		return nil, true, nil
	}
	hits, ok := search.MergeSkybands(plan.Weights, plan.Bounds, plan.Limit, parts)
	if !ok {
		// Some shard's maxima broke a bound the others pruned under: ask
		// the shards that answered again, assuming nothing.
		mBoundMisses.Inc()
		plan.Bounds = search.Bounds{}
		if parts, _, conflict = c.ask(ctx, version, plan, answered, missing); conflict {
			return nil, true, nil
		}
		hits, _ = search.MergeSkybands(plan.Weights, plan.Bounds, plan.Limit, parts)
	}
	if len(parts) == 0 {
		return nil, false, ErrAllShardsDown
	}

	res.Hits = make([]serve.HitJSON, len(hits))
	for n, h := range hits {
		res.Hits[n] = serve.HitJSON{
			URL:        h.Doc.URL,
			Title:      h.Doc.Title,
			Topic:      h.Doc.Topic,
			Tenant:     q.Tenant,
			Score:      h.Score,
			Cosine:     h.Cosine,
			Confidence: h.Confidence,
			Authority:  h.Authority,
		}
	}
	c.markMissing(res, missing)
	return res, false, nil
}

// ask sends plan to the target shards concurrently and returns the
// answers with the shards that gave them; a shard that fails joins
// missing. conflict reports a version conflict from any shard.
func (c *Coordinator) ask(ctx context.Context, version string, plan *search.Plan, targets []int, missing map[int]bool) ([]*search.Skyband, []int, bool) {
	ch := make(chan shardAnswer, len(targets))
	for _, i := range targets {
		go func(i int) {
			sb, err := c.shards[i].client.Search(ctx, version, plan)
			ch <- shardAnswer{i: i, sb: sb, err: err}
		}(i)
	}
	parts := make([]*search.Skyband, 0, len(targets))
	answered := make([]int, 0, len(targets))
	conflict := false
	for range targets {
		r := <-ch
		var ce *rpc.ConflictError
		switch {
		case errors.As(r.err, &ce):
			conflict = true
		case r.err != nil:
			missing[r.i] = true
		default:
			parts = append(parts, r.sb)
			answered = append(answered, r.i)
		}
	}
	return parts, answered, conflict
}

// markMissing fills the degradation fields from the missing-shard set.
func (c *Coordinator) markMissing(res *serve.Answer, missing map[int]bool) {
	if len(missing) == 0 {
		return
	}
	res.Degraded = true
	idx := make([]int, 0, len(missing))
	for i := range missing {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		res.Missing = append(res.Missing, c.shards[i].client.Addr())
	}
}

// StartProber launches the background reintegration loop: every
// ProbeInterval it pings the fleet and, when it finds a ready server whose
// installed stats version differs from the coordinator's (fresh restart,
// missed push), runs a Sync to fold it back in; otherwise, while the
// current version's authority round missed some shard and every such
// shard is ready, it reruns SyncAuth. Stop with StopProber. No-op when
// ProbeInterval < 0.
func (c *Coordinator) StartProber() {
	if c.opt.ProbeInterval < 0 || c.probeStop != nil {
		return
	}
	c.probeStop = make(chan struct{})
	c.probeDone = make(chan struct{})
	go c.probeLoop()
}

// StopProber stops the background reintegration loop.
func (c *Coordinator) StopProber() {
	if c.probeStop == nil {
		return
	}
	close(c.probeStop)
	<-c.probeDone
	c.probeStop, c.probeDone = nil, nil
}

// probeLoop is the prober body: ping, compare versions, resync when a
// recovered or lagging server shows up, retry a partial authority round.
func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	t := time.NewTicker(c.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		c.mu.RLock()
		version := c.version
		needAuth := c.authVer == version && version != ""
		var authMissing []int
		if needAuth {
			authMissing = slices.Clone(c.authMissing)
		}
		synced := make([]bool, len(c.shards))
		for i, s := range c.shards {
			synced[i] = s.synced
		}
		c.mu.RUnlock()
		stale := false
		ready := make([]bool, len(c.shards))
		for i, s := range c.shards {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			p, err := s.client.Ping(ctx)
			cancel()
			if err != nil || !p.Ready {
				continue
			}
			ready[i] = true
			if p.StatsVersion != version || !synced[i] {
				stale = true
			}
		}
		// Retry a partial authority round once every shard it missed is
		// ready again.
		retryAuth := len(authMissing) > 0
		for _, i := range authMissing {
			retryAuth = retryAuth && ready[i]
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if stale {
			if err := c.Sync(ctx); err == nil && needAuth {
				_ = c.SyncAuth(ctx)
			}
		} else if retryAuth {
			_ = c.SyncAuth(ctx)
		}
		cancel()
	}
}
