package store

import (
	"time"

	"github.com/bingo-search/bingo/internal/segment"
	"github.com/bingo-search/bingo/internal/textproc"
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
// In a tiered store a flush is also the WAL batching point: each touched
// shard gets one WAL record per flush, holding its documents, out-links and
// redirects DEFLATE'd together, appended while the shard's relation locks
// are held (making the record atomic with respect to WAL rotation), and the
// touched logs are fsynced once at the end of the flush — one record and
// one fsync per flush per shard, not per row. Flush is also where
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
	rec  batchRecord
	wals []*segment.WAL
}

// NewWorkspace returns a workspace that bulk-loads every batchSize
// documents (default 64), as §4.1's workspaces collect "a certain number of
// documents" before each bulk load. Links and redirects never trigger a
// flush: Add flushes before it buffers a document, so a page's document,
// redirects and out-links, added after it, always share one flush and one
// WAL record per shard.
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

// Add buffers a document, first flushing the batch if it already holds
// batchSize documents. The document routes to its shard by docKey, so two
// tenants crawling the same URL keep distinct rows.
func (w *Workspace) Add(d Document) {
	if w.pending >= w.batchSize {
		if err := w.Flush(); err != nil && w.err == nil {
			w.err = err
		}
	}
	b := &w.byShard[int(fnv32(d.key())&w.store.mask)]
	b.docs = append(b.docs, d)
	w.buffered++
	w.pending++
}

// AddLink buffers a link row for the next flush.
func (w *Workspace) AddLink(l Link) {
	from := w.store.ShardForURL(l.From)
	to := w.store.ShardForURL(l.To)
	w.byShard[from].outLinks = append(w.byShard[from].outLinks, l)
	w.byShard[to].inLinks = append(w.byShard[to].inLinks, l)
	w.buffered++
}

// AddRedirect buffers a redirect row for the next flush.
func (w *Workspace) AddRedirect(r Redirect) {
	b := &w.byShard[w.store.ShardForURL(r.From)]
	b.redirects = append(b.redirects, r)
	w.buffered++
}

// Pending returns the number of buffered documents.
func (w *Workspace) Pending() int { return w.pending }

// Buffered returns the total number of buffered rows across all relations.
func (w *Workspace) Buffered() int { return w.buffered }

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
		// Each shard logs at most one record, so w.wals holds no duplicates.
		if _, wal := s.writeShard(s.shards[si], b, &w.rec); wal != nil {
			w.wals = append(w.wals, wal)
			docsFlushed += int64(len(b.docs))
		}
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

// batchRecord is the scratch one shard's WAL batch record is built in.
//
// A batch record is [walOpBatch][textproc.PipelineVersion uvarint][first
// seq uvarint][raw length uvarint] followed by the body, DEFLATE'd: the
// documents (meta without the seq, then text), the out-links as runs of
// one From (From once, then To and Anchor per link), then the redirects
// (encodeBatchBody). The seqs are left out because a batch's documents take
// contiguous seqs under one docMu hold, which the body is compressed
// before. Term vectors are left out because each is textproc.DocTerms of
// the title and text beside it: replay derives them, under the pipeline
// version the header names.
type batchRecord struct {
	body segment.Enc
	comp []byte
	rec  segment.Enc
}

// seal encodes b's logged rows as the record body and compresses it.
func (r *batchRecord) seal(b *wsShard) {
	r.body.Reset()
	encodeBatchBody(&r.body, b)
	r.comp = segment.Deflate(r.comp[:0], r.body.Bytes())
}

// frame returns the sealed record under a header naming its documents'
// first seq (0 when it holds none).
func (r *batchRecord) frame(firstSeq int64) []byte {
	r.rec.Reset()
	r.rec.Byte(walOpBatch)
	r.rec.Uvarint(textproc.PipelineVersion)
	r.rec.Uvarint(uint64(firstSeq))
	r.rec.Uvarint(uint64(len(r.body.Bytes())))
	r.rec.Raw(r.comp)
	return r.rec.Bytes()
}

// encodeBatchBody encodes b's logged rows as a batch record body.
func encodeBatchBody(e *segment.Enc, b *wsShard) {
	e.Uvarint(uint64(len(b.docs)))
	for i := range b.docs {
		d := &b.docs[i]
		m := metaFromDoc(d)
		e.MetaFields(&m)
		e.Str(d.Text)
	}
	runs := 0
	for i := 0; i < len(b.outLinks); i = linkRunEnd(b.outLinks, i) {
		runs++
	}
	e.Uvarint(uint64(runs))
	for i := 0; i < len(b.outLinks); {
		j := linkRunEnd(b.outLinks, i)
		e.Str(b.outLinks[i].From)
		e.Uvarint(uint64(j - i))
		for _, l := range b.outLinks[i:j] {
			e.Str(l.To)
			e.Str(l.Anchor)
		}
		i = j
	}
	e.Uvarint(uint64(len(b.redirects)))
	for _, r := range b.redirects {
		e.Str(r.From)
		e.Str(r.To)
	}
}

// linkRunEnd returns the end of the run of links sharing ls[i].From.
// Out-links are buffered page by page, so a buffer is runs of equal From.
func linkRunEnd(ls []Link, i int) int {
	j := i + 1
	for j < len(ls) && ls[j].From == ls[i].From {
		j++
	}
	return j
}

// writeShard moves b's rows into sh; its documents take the seqs
// firstSeq, firstSeq+1, … in order. In a tiered shard the rows' one batch
// record is encoded and DEFLATE'd first, outside every lock. Then, under
// docMu → linkMu → redirMu (each taken only when its relation has rows),
// the documents get their ids, all three relations are applied, and the
// record is appended. Freeze rotates the WAL under all three locks, so a
// record — a page and its out-links together — lands whole in one
// generation. wal is the WAL the record landed in, nil when nothing was
// logged. Last, with every lock released, the store's sink gets the rows,
// but not the in-link index entries: AddLink writes those in a second
// call, and each is a view of an out-link row mirrored already.
func (s *Store) writeShard(sh *storeShard, b *wsShard, r *batchRecord) (firstSeq int64, wal *segment.WAL) {
	t := sh.tier
	logged := t != nil && b.rows() > 0
	if logged {
		r.seal(b)
	}
	docs := len(b.docs) > 0
	links := len(b.outLinks) > 0 || len(b.inLinks) > 0
	redirs := len(b.redirects) > 0
	if docs {
		sh.docMu.Lock()
		firstSeq = sh.nextSeq + 1
	}
	if links {
		sh.linkMu.Lock()
	}
	if redirs {
		sh.redirMu.Lock()
	}
	for i := range b.docs {
		sh.insertDocLocked(b.docs[i])
		if t != nil {
			t.addHotLocked(docBytes(&b.docs[i]), 1)
		}
	}
	for i := 0; i < len(b.outLinks); {
		j := linkRunEnd(b.outLinks, i)
		from := b.outLinks[i].From
		sh.outLinks[from] = append(sh.outLinks[from], b.outLinks[i:j]...)
		i = j
	}
	for _, l := range b.inLinks {
		sh.inLinks[l.To] = append(sh.inLinks[l.To], l)
	}
	if t != nil && len(b.outLinks) > 0 {
		t.hotOut = append(t.hotOut, b.outLinks...)
	}
	if redirs {
		sh.redirects = append(sh.redirects, b.redirects...)
		if t != nil {
			t.hotRedir = append(t.hotRedir, b.redirects...)
		}
	}
	if logged {
		wal, _ = t.appendWALLocked(r.frame(firstSeq))
	}
	if redirs {
		sh.redirMu.Unlock()
	}
	if links {
		sh.linkMu.Unlock()
	}
	if docs {
		sh.docMu.Unlock()
	}
	sh.bumpEpoch()
	if s.sink != nil && b.rows() > 0 {
		s.sink.Put(b.docs, b.outLinks, b.redirects)
	}
	return firstSeq, wal
}
