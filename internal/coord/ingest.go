package coord

// This file is the ingest half of the coordinator: a Router that
// implements store.Sink and mirrors a crawl store's writes to shard
// servers. Rows are routed by store.RouteURL over the same FNV-1a hash
// local shard placement uses (documents by their URL, link and redirect
// rows by their source URL, so a document's outgoing edges land on its own
// partition), batched per server, and applied through /rpc/v1/insert — one
// bulk load and one WAL fsync per batch on the far side.
//
// Delivery is asynchronous: the writing goroutines (crawl workers flushing
// their workspaces) append to per-server batches under a short lock while
// one sender goroutine per server drains a bounded queue. A dead server
// therefore slows nothing down — its queue fills, further batches for it
// are dropped and counted (coord_ingest_dropped_rows_total), and the crawl
// proceeds; the rows remain in the crawler's local store, so a later full
// resync (or a re-crawl) can restore them. Flush drains every queue and
// reports the first delivery error recorded up to the end of that drain —
// including errors from the batches the Flush itself delivered.

import (
	"context"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/store"
)

// Ingest-side traffic: batches and documents shipped, rows dropped because
// a server's queue was full (the dead-shard signal during a crawl), and
// delivery errors.
var (
	mIngestBatches = metrics.NewCounter("coord_ingest_batches_total")
	mIngestDocs    = metrics.NewCounter("coord_ingest_docs_total")
	mIngestDropped = metrics.NewCounter("coord_ingest_dropped_rows_total")
	mIngestErrors  = metrics.NewCounter("coord_ingest_errors_total")
)

// RouterOptions tunes a Router.
type RouterOptions struct {
	// BatchRows flushes a per-server batch once it holds this many rows
	// (default 128).
	BatchRows int
	// QueueLen bounds each server's pending-batch queue; a full queue
	// drops further batches for that server (default 8).
	QueueLen int
	// Timeout bounds one insert RPC (default 30s — inserts pay a WAL
	// fsync on the far side, so they get more room than queries).
	Timeout time.Duration
	// Progress, when set, is called after every acknowledged batch with
	// the server's base address and its post-batch counters. Called from
	// sender goroutines; must be safe for concurrent use.
	Progress func(addr string, resp *rpc.InsertResponse)
}

// ShardAck is the last acknowledged state of one shard server's ingest.
type ShardAck struct {
	// Addr is the server base address.
	Addr string
	// NumDocs is the server's live document count at the last ack.
	NumDocs int
	// Durable is the server's durable document count at the last ack.
	Durable int64
	// DroppedRows counts rows abandoned because the server's queue was
	// full (it was down or too slow).
	DroppedRows int64
}

// batch is one pending insert payload for a single server.
type batch struct {
	req  rpc.InsertRequest
	rows int
	// done, when non-nil, marks a Flush sentinel: the sender signals it
	// after everything enqueued before it has been delivered.
	done chan struct{}
}

// Router mirrors crawl writes to shard servers. It implements store.Sink;
// hand it to the engine via core.Config.Sink. Safe for concurrent use.
type Router struct {
	clients []*rpc.Client
	opt     RouterOptions

	mu      sync.Mutex
	cur     []*batch // per-server batch under construction
	queues  []chan *batch
	acks    []ShardAck
	lastErr error

	wg sync.WaitGroup
}

// NewRouter builds a router over the per-shard clients in partition order
// (index i receives the rows store.RouteURL maps to i). Call Close when
// the crawl is over.
func NewRouter(clients []*rpc.Client, opt RouterOptions) *Router {
	if opt.BatchRows <= 0 {
		opt.BatchRows = 128
	}
	if opt.QueueLen <= 0 {
		opt.QueueLen = 8
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	r := &Router{
		clients: clients,
		opt:     opt,
		cur:     make([]*batch, len(clients)),
		queues:  make([]chan *batch, len(clients)),
		acks:    make([]ShardAck, len(clients)),
	}
	for i := range clients {
		r.acks[i].Addr = clients[i].Addr()
		r.queues[i] = make(chan *batch, opt.QueueLen)
		r.wg.Add(1)
		go r.sender(i)
	}
	return r
}

// Put implements store.Sink: under one lock hold it appends each row to
// the batch of the server it routes to — a document by its URL, link and
// redirect rows by their source URL, so a document and its outgoing edges
// share a partition. A document travels without its term vector
// (store.Document encodes none), which the shard server derives from its
// title and text.
func (r *Router) Put(docs []store.Document, links []store.Link, redirects []store.Redirect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range docs {
		i := store.RouteURL(d.URL, len(r.clients))
		b := r.batchFor(i)
		b.req.Docs = append(b.req.Docs, d)
		r.bump(i, b)
	}
	for _, l := range links {
		i := store.RouteURL(l.From, len(r.clients))
		b := r.batchFor(i)
		b.req.Links = append(b.req.Links, l)
		r.bump(i, b)
	}
	for _, rd := range redirects {
		i := store.RouteURL(rd.From, len(r.clients))
		b := r.batchFor(i)
		b.req.Redirects = append(b.req.Redirects, rd)
		r.bump(i, b)
	}
}

// PutDoc routes one document (see Put).
func (r *Router) PutDoc(d store.Document) { r.Put([]store.Document{d}, nil, nil) }

// PutLink routes one link row (see Put).
func (r *Router) PutLink(l store.Link) { r.Put(nil, []store.Link{l}, nil) }

// batchFor returns server i's batch under construction, creating it if
// needed. Caller holds r.mu.
func (r *Router) batchFor(i int) *batch {
	if r.cur[i] == nil {
		r.cur[i] = &batch{}
	}
	return r.cur[i]
}

// bump counts one appended row and enqueues the batch once full. Caller
// holds r.mu.
func (r *Router) bump(i int, b *batch) {
	b.rows++
	if b.rows >= r.opt.BatchRows {
		r.enqueue(i, b)
		r.cur[i] = nil
	}
}

// enqueue offers a batch to server i's queue, dropping it (counted) when
// the queue is full. Caller holds r.mu.
func (r *Router) enqueue(i int, b *batch) {
	select {
	case r.queues[i] <- b:
	default:
		mIngestDropped.Add(int64(b.rows))
		r.acks[i].DroppedRows += int64(b.rows)
	}
}

// Flush implements store.Sink: it pushes every batch under construction
// into its queue, waits for all queues to drain, and returns (and clears)
// the first delivery error recorded up to the end of that drain — errors
// from batches this Flush delivered included, so the final Flush (Close)
// cannot report a clean drain that actually failed. A dead server's
// dropped batches are not an error here — they are visible in Acks and
// the drop counter instead, because the crawl should finish degraded
// rather than abort.
func (r *Router) Flush() error {
	r.mu.Lock()
	for i := range r.clients {
		if b := r.cur[i]; b != nil {
			r.enqueue(i, b)
			r.cur[i] = nil
		}
	}
	r.mu.Unlock()
	sentinels := make([]*batch, len(r.clients))
	for i := range r.clients {
		s := &batch{done: make(chan struct{})}
		sentinels[i] = s
		// The sentinel must not be dropped: block until it fits. Queues
		// drain continuously (senders discard on error), so this cannot
		// deadlock.
		r.queues[i] <- s
	}
	for _, s := range sentinels {
		<-s.done
	}
	// Read the error only after the sentinel wait: the senders have
	// delivered (or failed) everything enqueued above, so their errors are
	// parked in lastErr by now.
	r.mu.Lock()
	err := r.lastErr
	r.lastErr = nil
	r.mu.Unlock()
	return err
}

// Close flushes, stops the sender goroutines, and waits for them.
func (r *Router) Close() error {
	err := r.Flush()
	for i := range r.queues {
		close(r.queues[i])
	}
	r.wg.Wait()
	return err
}

// Acks returns the last acknowledged ingest state of every shard server,
// in partition order.
func (r *Router) Acks() []ShardAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardAck, len(r.acks))
	copy(out, r.acks)
	return out
}

// sender is server i's delivery loop: apply batches in order, record
// acks, park the first error for Flush. Insert is never hedged or
// retried — a duplicate delivery would double link rows and skew the
// global link graph — so a failed batch is dropped and counted.
func (r *Router) sender(i int) {
	defer r.wg.Done()
	for b := range r.queues[i] {
		if b.done != nil {
			close(b.done)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.opt.Timeout)
		resp, err := r.clients[i].Insert(ctx, &b.req)
		cancel()
		if err != nil {
			mIngestErrors.Inc()
			mIngestDropped.Add(int64(b.rows))
			r.mu.Lock()
			r.acks[i].DroppedRows += int64(b.rows)
			if r.lastErr == nil {
				r.lastErr = err
			}
			r.mu.Unlock()
			continue
		}
		mIngestBatches.Inc()
		mIngestDocs.Add(int64(len(b.req.Docs)))
		r.mu.Lock()
		r.acks[i].NumDocs = resp.NumDocs
		r.acks[i].Durable = resp.Durable
		r.mu.Unlock()
		if r.opt.Progress != nil {
			r.opt.Progress(r.clients[i].Addr(), resp)
		}
	}
}
