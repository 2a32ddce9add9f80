package store

import (
	"time"

	"github.com/bingo-search/bingo/internal/segment"
)

// This file implements the batched write path: workspaces buffer rows per
// crawler thread and move them into the store with one bulk load, which is
// what lets the crawl sustain §4.1's "up to ten thousand documents per
// minute" without per-row lock traffic. Rows are buffered per document
// shard at Add time, so a flush walks the shards it actually touched and
// takes each shard's relation locks exactly once — two threads flushing
// simultaneously only contend when they touch the same shard's same
// relation at the same instant. Flush sizes and durations are exported as
// store_flush_rows / store_flush_nanos so an operator can see whether
// batching is actually happening (many small flushes mean the batch size
// is too low or the crawl is starved).
//
// In a tiered store a flush is also the WAL batching point: each relation's
// rows are appended to the owning shard's WAL as one record while that
// relation's lock is held (making the record atomic with respect to WAL
// rotation), and the touched logs are fsynced once at the end of the flush
// — one fsync per flush per shard, not per row. Flush is also where
// memtable pressure is relieved: a shard over its budget is frozen
// synchronously on the flushing (crawler) thread, which is the write-path
// backpressure that keeps ingest from outrunning the disk.

// wsShard is one shard's slice of a workspace buffer. A link is buffered
// as an out-link row on its source URL's shard, which alone logs it, and as
// an in-link index entry on its target's, matching the store's routing.
type wsShard struct {
	docs      []Document
	outLinks  []Link
	inLinks   []Link
	redirects []Redirect
}

func (b *wsShard) rows() int {
	return len(b.docs) + len(b.outLinks) + len(b.redirects)
}

// Workspace is a per-crawler-thread write buffer (§4.1): "Each thread
// batches the storing of new documents and avoids SQL insert commands by
// first collecting a certain number of documents in workspaces and then
// invoking the database system's bulk loader." Flush moves each buffered
// relation into its owning shard under that shard's relation lock.
//
// A workspace is owned by one goroutine; only the store it flushes into is
// shared.
type Workspace struct {
	store     *Store
	batchSize int
	byShard   []wsShard
	buffered  int // total rows across shards (in-link index entries not counted)
	pending   int // buffered documents

	// err holds a flush error raised by an auto-flush inside Add, carried
	// to the next explicit Flush call.
	err error

	// Flush scratch, reused across batches so the steady state allocates
	// nothing per flush.
	ids  []DocID
	enc  segment.Enc
	wals []*segment.WAL
}

// NewWorkspace returns a workspace that auto-flushes when the total number
// of buffered rows — documents, links, and redirects — reaches batchSize
// (default 64). Counting all rows, not just documents, bounds the buffer on
// link-heavy pages too.
func (s *Store) NewWorkspace(batchSize int) *Workspace {
	if batchSize <= 0 {
		batchSize = 64
	}
	return &Workspace{
		store:     s,
		batchSize: batchSize,
		byShard:   make([]wsShard, len(s.shards)),
	}
}

// Add buffers a document, flushing automatically when the batch is full.
// The document routes to its shard by docKey, so two tenants crawling the
// same URL keep distinct rows.
func (w *Workspace) Add(d Document) {
	b := &w.byShard[int(fnv32(d.key())&w.store.mask)]
	b.docs = append(b.docs, d)
	w.buffered++
	w.pending++
	w.maybeFlush()
}

// AddLink buffers a link row, flushing automatically when the batch is full.
func (w *Workspace) AddLink(l Link) {
	from := w.store.ShardForURL(l.From)
	to := w.store.ShardForURL(l.To)
	w.byShard[from].outLinks = append(w.byShard[from].outLinks, l)
	w.byShard[to].inLinks = append(w.byShard[to].inLinks, l)
	w.buffered++
	w.maybeFlush()
}

// AddRedirect buffers a redirect row, flushing automatically when the batch
// is full.
func (w *Workspace) AddRedirect(r Redirect) {
	b := &w.byShard[w.store.ShardForURL(r.From)]
	b.redirects = append(b.redirects, r)
	w.buffered++
	w.maybeFlush()
}

// Pending returns the number of buffered documents.
func (w *Workspace) Pending() int { return w.pending }

// Buffered returns the total number of buffered rows across all relations.
func (w *Workspace) Buffered() int { return w.buffered }

func (w *Workspace) maybeFlush() {
	if w.buffered >= w.batchSize {
		if err := w.Flush(); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// noteWAL remembers a WAL that received records this flush, for the
// end-of-flush fsync.
func (w *Workspace) noteWAL(wal *segment.WAL) {
	if wal == nil {
		return
	}
	for _, have := range w.wals {
		if have == wal {
			return
		}
	}
	w.wals = append(w.wals, wal)
}

// Flush bulk-loads all buffered rows into their owning shards, walking the
// shards in index order and skipping untouched ones. In a tiered store it
// returns the first write-ahead-log or segment error since the previous
// flush — a crawler must treat that as "recent acknowledgements may not be
// durable"; for a purely in-memory store the error is always nil.
func (w *Workspace) Flush() error {
	if w.buffered == 0 {
		return w.takeErr()
	}
	start := time.Now()
	mFlushRows.Observe(int64(w.buffered))
	s := w.store
	w.wals = w.wals[:0]
	docsFlushed := int64(0)
	for si := range w.byShard {
		b := &w.byShard[si]
		if b.rows() == 0 && len(b.inLinks) == 0 {
			continue
		}
		sh := s.shards[si]
		t := sh.tier
		if len(b.docs) > 0 {
			w.ids = w.ids[:0]
			sh.docMu.Lock()
			for i := range b.docs {
				w.ids = append(w.ids, sh.insertDocLocked(b.docs[i]))
			}
			if t != nil {
				w.enc.Reset()
				w.enc.Byte(walOpDocs)
				w.enc.Uvarint(uint64(len(b.docs)))
				for i := range b.docs {
					d := &b.docs[i]
					t.addHotLocked(docBytes(d), 1)
					walEncodeDoc(&w.enc, int64(w.ids[i])>>sh.bits, d)
				}
				wal, _ := t.appendWALLocked(w.enc.Bytes())
				w.noteWAL(wal)
				docsFlushed += int64(len(b.docs))
			}
			sh.docMu.Unlock()
		}
		if len(b.outLinks) > 0 || len(b.inLinks) > 0 {
			sh.linkMu.Lock()
			// Out-links are buffered page by page, so the buffer is runs of
			// equal From; append each run to the out-link table in one shot
			// instead of re-probing the map per link.
			for i := 0; i < len(b.outLinks); {
				j := i + 1
				from := b.outLinks[i].From
				for j < len(b.outLinks) && b.outLinks[j].From == from {
					j++
				}
				sh.outLinks[from] = append(sh.outLinks[from], b.outLinks[i:j]...)
				i = j
			}
			for _, l := range b.inLinks {
				sh.inLinks[l.To] = append(sh.inLinks[l.To], l)
			}
			if t != nil && len(b.outLinks) > 0 {
				t.hotOut = append(t.hotOut, b.outLinks...)
				w.enc.Reset()
				walEncodeLinks(&w.enc, b.outLinks)
				wal, _ := t.appendWALLocked(w.enc.Bytes())
				w.noteWAL(wal)
			}
			sh.linkMu.Unlock()
		}
		if len(b.redirects) > 0 {
			sh.redirMu.Lock()
			sh.redirects = append(sh.redirects, b.redirects...)
			if t != nil {
				t.hotRedir = append(t.hotRedir, b.redirects...)
				w.enc.Reset()
				w.enc.Byte(walOpRedirects)
				w.enc.Uvarint(uint64(len(b.redirects)))
				for _, r := range b.redirects {
					w.enc.Str(r.From)
					w.enc.Str(r.To)
				}
				wal, _ := t.appendWALLocked(w.enc.Bytes())
				w.noteWAL(wal)
			}
			sh.redirMu.Unlock()
		}
		sh.bumpEpoch()
		b.docs = b.docs[:0]
		b.outLinks = b.outLinks[:0]
		b.inLinks = b.inLinks[:0]
		b.redirects = b.redirects[:0]
	}
	s.bulkLoads.Add(1)
	mBulkLoads.Inc()
	w.buffered = 0
	w.pending = 0
	if s.Tiered() {
		if s.opt.WALSync {
			syncStart := time.Now()
			synced := true
			for _, wal := range w.wals {
				if err := wal.Sync(); err != nil {
					synced = false
					s.noteTierErr(err)
				}
			}
			mWALSyncNanos.ObserveSince(syncStart)
			if synced {
				s.durable.Add(docsFlushed)
			}
		}
		for si := range w.byShard {
			if s.shards[si].tier != nil {
				s.maybeFreeze(s.shards[si])
			}
		}
	}
	mFlushNanos.ObserveSince(start)
	if err := w.takeErr(); err != nil {
		return err
	}
	return s.TierErr()
}

func (w *Workspace) takeErr() error {
	err := w.err
	w.err = nil
	return err
}
