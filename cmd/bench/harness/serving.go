package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/span"
	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/coord"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// reqHeader carries a traced request's index to the server-side span;
// parentHeader carries the client-side span that caused it, when the
// client opened one before sending.
const (
	reqHeader    = "X-Bench-Req"
	parentHeader = "X-Bench-Parent"
)

// serving is one system under test behind a /search URL: either the
// single-process stack (one tiered store, search.Engine, serve.API with
// cache and admission as cmd/portald ships them) or the sharded one
// (coord.API over a coord.Coordinator and two rpc.Servers, each on its own
// loopback listener and its own tiered store, as portald -shards and two
// shardd would run — in one process, so CPU seconds cover all of it).
type serving struct {
	sc      Scale
	sharded bool
	dirs    []string // one data directory per store
	stores  []*store.Store

	// single-process
	engine *search.Engine

	// sharded
	rpcSrvs []*rpc.Server
	shardHS []*httptest.Server
	coord   *coord.Coordinator
	syncMs  float64 // wall time of the last Sync+SyncAuth

	front *httptest.Server
	// rec is the traced run's recorder. The front and shard listeners always
	// go through the same thin wrappers, which record a span (and count
	// shard RPC bytes) only while a recorder is attached — so the untraced
	// reference windows of a traced run serve through identical code.
	rec      atomic.Pointer[span.Recorder]
	rpcBytes atomic.Int64 // request + response body bytes through the shard listeners
}

// shardCounts returns how many store shards each data directory holds: the
// single-process store has all of them, the two shard servers half each.
func (s *serving) shardCounts() int {
	if s.sharded {
		return s.sc.StoreShards / 2
	}
	return s.sc.StoreShards
}

// openServing opens (creating or recovering) the tiered stores under root
// and starts the serving stack over them. A sharded stack is synced before
// it is returned when the stores already hold documents.
func openServing(ctx context.Context, sc Scale, root string, sharded bool, rec *span.Recorder) (*serving, error) {
	s := &serving{sc: sc, sharded: sharded}
	s.rec.Store(rec)
	n := 1
	if sharded {
		n = 2
	}
	for i := 0; i < n; i++ {
		dir := filepath.Join(root, "store-"+strconv.Itoa(i))
		st, err := store.OpenTiered(dir, s.shardCounts(), storeOptions(sc))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("open tiered store %s: %w", dir, err)
		}
		s.dirs = append(s.dirs, dir)
		s.stores = append(s.stores, st)
	}
	var handler http.Handler
	if sharded {
		addrs := make([]string, n)
		for i, st := range s.stores {
			srv := rpc.NewServer(st)
			srv.SetReady(true)
			hs := httptest.NewServer(s.traced("rpc.server", srv.Handler(), true))
			s.rpcSrvs = append(s.rpcSrvs, srv)
			s.shardHS = append(s.shardHS, hs)
			addrs[i] = hs.URL
		}
		// Hedging, timeouts and the prober are left at their defaults, as
		// portald -shards starts them; the prober is not started because
		// nothing here restarts a shard behind the coordinator's back.
		c, err := coord.New(addrs, coord.Options{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.coord = c
		api := coord.NewAPI(c)
		api.SetReady(true)
		handler = api.Handler()
		if s.numDocs() > 0 {
			if err := s.sync(ctx); err != nil {
				s.close()
				return nil, err
			}
		}
	} else {
		s.engine = search.New(s.stores[0])
		api := serve.New(s.stores[0], s.engine, serve.Options{
			Cache: servecache.New(cacheEntries),
			Admission: admit.New(admit.Options{
				MaxInFlight:  maxInFlight,
				MaxQueue:     maxQueue,
				QueueTimeout: queueTimeout,
				RetryAfter:   retryAfter,
			}),
		})
		api.SetReady(true)
		handler = api.Handler()
	}
	s.front = httptest.NewServer(s.traced("serve.handler", handler, false))
	return s, nil
}

// traced wraps a listener's handler with the benchmark-side span around
// the call into the layer. countBytes also adds the request and response
// body sizes to rpcBytes.
func (s *serving) traced(name string, inner http.Handler, countBytes bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		if rec == nil {
			inner.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.Atoi(r.Header.Get(reqHeader))
		parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
		if countBytes {
			cw := &countingWriter{ResponseWriter: w}
			w = cw
			defer func() { s.rpcBytes.Add(r.ContentLength + cw.n) }()
		}
		id := rec.Begin(name, parent, req)
		inner.ServeHTTP(w, r)
		rec.End(id)
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

// Write passes b through and counts what was written.
func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// numDocs returns the live document count across the stores.
func (s *serving) numDocs() int {
	n := 0
	for _, st := range s.stores {
		n += st.NumDocs()
	}
	return n
}

// sync runs the coordinator's stats and authority rounds, which is what
// makes routed documents visible to sharded queries.
func (s *serving) sync(ctx context.Context) error {
	start := time.Now()
	if err := s.coord.Sync(ctx); err != nil {
		return fmt.Errorf("coordinator sync: %w", err)
	}
	if err := s.coord.SyncAuth(ctx); err != nil {
		return fmt.Errorf("coordinator authority sync: %w", err)
	}
	s.syncMs = float64(time.Since(start)) / float64(time.Millisecond)
	return nil
}

// ingest delivers documents and their out-links the way a crawl would: a
// workspace flushed every batchRows rows into the local store, or the
// coordinator's ingest router (portald's batch size) into the shard
// servers. Routed documents become visible to queries at the next sync.
func (s *serving) ingest(ctx context.Context, docs []store.Document, links map[string][]store.Link) error {
	if !s.sharded {
		ws := s.stores[0].NewWorkspace(batchRows)
		for _, d := range docs {
			ws.Add(d)
			for _, l := range links[d.URL] {
				ws.AddLink(l)
			}
		}
		return ws.Flush()
	}
	// The router drops batches when a server's queue is full — right for a
	// crawl that must not stall, wrong for a bulk load that outruns the
	// senders. A deep queue plus a periodic Flush gives the load
	// back-pressure; a drop is still checked for and is an error.
	router := coord.NewRouter(s.coord.Clients(), coord.RouterOptions{BatchRows: 16, QueueLen: 1024})
	for i, d := range docs {
		router.PutDoc(d)
		for _, l := range links[d.URL] {
			router.PutLink(l)
		}
		if i%256 == 255 {
			if err := router.Flush(); err != nil {
				router.Close()
				return fmt.Errorf("routed ingest: %w", err)
			}
		}
	}
	if err := router.Close(); err != nil {
		return fmt.Errorf("routed ingest: %w", err)
	}
	for _, a := range router.Acks() {
		if a.DroppedRows > 0 {
			return fmt.Errorf("routed ingest: %d rows dropped for %s", a.DroppedRows, a.Addr)
		}
	}
	return nil
}

// settle blocks until no size tier of any shard has a merge left to run:
// CompactShard waits for a merge in flight and reports whether it ran one.
// It returns how many merges it ran itself (0 = compaction was already
// idle).
func (s *serving) settle() (int, error) {
	ran := 0
	for _, st := range s.stores {
		n, err := settleStore(st)
		ran += n
		if err != nil {
			return ran, err
		}
	}
	return ran, nil
}

// settleStore is settle for one store.
func settleStore(st *store.Store) (int, error) {
	ran := 0
	for i := 0; i < st.NumShards(); i++ {
		for {
			did, err := st.CompactShard(i)
			if err != nil {
				return ran, fmt.Errorf("compacting shard %d: %w", i, err)
			}
			if !did {
				break
			}
			ran++
		}
	}
	return ran, nil
}

// hitJSON is the part of a /search hit both API flavours share.
type hitJSON struct {
	URL        string  `json:"url"`
	Score      float64 `json:"score"`
	Cosine     float64 `json:"cosine"`
	Confidence float64 `json:"confidence"`
	Authority  float64 `json:"authority"`
}

// searchReply is the part of a /search response the oracles read.
type searchReply struct {
	Cached   bool      `json:"cached"`
	Degraded bool      `json:"degraded"`
	Hits     []hitJSON `json:"hits"`
}

// search sends one /search request through the front listener.
func (s *serving) search(client *http.Client, text string) (status int, reply searchReply, nbytes int, err error) {
	resp, err := client.Get(s.front.URL + "/search?" + rawQuery(text))
	if err != nil {
		return 0, reply, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, reply, 0, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &reply); err != nil {
			return resp.StatusCode, reply, len(body), fmt.Errorf("decoding /search reply: %w", err)
		}
	}
	return resp.StatusCode, reply, len(body), nil
}

// close stops the listeners and closes the stores; the data directories
// stay for a reopen.
func (s *serving) close() error {
	if s.front != nil {
		s.front.Close()
		s.front = nil
	}
	for _, hs := range s.shardHS {
		hs.Close()
	}
	s.shardHS = nil
	var first error
	for _, st := range s.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.stores = nil
	return first
}

// diskUsage returns the bytes of live segment files and of everything in
// the data directories.
func diskUsage(dirs ...string) (segBytes, allBytes int64, err error) {
	for _, dir := range dirs {
		sb, err := dirBytes(dir, isSegment)
		if err != nil {
			return 0, 0, err
		}
		ab, err := dirBytes(dir, nil)
		if err != nil {
			return 0, 0, err
		}
		segBytes += sb
		allBytes += ab
	}
	return segBytes, allBytes, nil
}
