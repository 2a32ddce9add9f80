// Package store is BINGO!'s storage manager. The original system used
// Oracle9i and learned two lessons the hard way (§4.1): hierarchical
// (nested-table) schemas forced the optimizer into Cartesian products, so
// the schema was flattened into plain relations; and per-row SQL inserts
// were too slow, so crawler threads batch documents in workspaces and move
// them with a bulk loader, sustaining up to ten thousand documents per
// minute. This package reproduces that design as an embedded store: flat
// in-memory relations (documents, links, redirects), a workspace/bulk-load
// write path, and binary persistence.
//
// The store is partitioned into P document shards (NewSharded). A document
// belongs to the shard its URL hashes to, and its DocID encodes the shard
// in the low bits — routing any ID or URL to its shard is a mask, not a
// map lookup. Each shard owns its rows, its link/redirect rows, and its own
// mutation epoch, so concurrent workspace flushes from different crawler
// threads touching different shards share no locks at all. The store keeps
// no memory inverted index: queries score from the search snapshot's own
// postings, and a tiered shard's segments carry theirs. New() returns a
// single-shard store whose IDs and iteration behavior match the historical
// unsharded store exactly.
package store

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/segment"
)

// Process-wide storage metrics: write-path traffic (per-row inserts vs
// bulk loads and their batch sizes), document counts, and mutation
// epochs — the §4.1 signals an operator needs to see whether crawler
// threads are actually batching. Per-shard document counts are exported as
// store_shard_docs{shard="i"} (see shard.go).
var (
	mRowInserts    = metrics.NewCounter("store_row_inserts_total")
	mBulkLoads     = metrics.NewCounter("store_bulk_loads_total")
	mFlushRows     = metrics.NewHistogram("store_flush_rows")
	mFlushNanos    = metrics.NewHistogram("store_flush_nanos")
	mEpochAdvances = metrics.NewCounter("store_epoch_advances_total")
	mDocs          = metrics.NewGauge("store_docs")
)

// DocID identifies a stored document. The shard index lives in the low
// bits (ShardOf) and the shard-local sequence number in the rest; ID 0 is
// never assigned and marks a hole in dense per-document arrays.
//
// A DocID's Title, Text and Terms never change for the life of a store:
// every insert — a recrawl replacing a URL included — takes a sequence
// above every one its shard ever issued, deleted documents' and
// (after a reopen) persisted ones' included, and freeze and compaction
// move payload without renumbering. Only the row fields (Topic,
// Confidence, IsTraining) mutate in place. The search snapshot relies on
// this to carry an unchanged row's term vector from one build to the next.
type DocID int64

// Document is one row of the document relation.
type Document struct {
	ID DocID
	// Tenant names the portal the document belongs to ("" = the default
	// tenant). Documents of different tenants are distinct rows even when
	// they share a URL; link and redirect rows stay URL-keyed, so the web
	// graph (and HITS authority) is shared across tenants.
	Tenant      string
	URL         string
	FinalURL    string
	Title       string
	ContentType string
	// Topic is the tree node the classifier assigned ("" = unclassified,
	// "<parent>/OTHERS" for rejected documents).
	Topic string
	// Confidence is the SVM confidence of the assignment.
	Confidence float64
	// Depth is the crawl distance from the seeds.
	Depth int
	// Text is the extracted visible text.
	Text string
	// Terms holds the document's term counts in the active feature space.
	Terms map[string]int
	// CrawledAt is the retrieval time.
	CrawledAt time.Time
	// IsTraining marks current training documents.
	IsTraining bool
}

// Link is one row of the link relation.
type Link struct {
	From   string
	To     string
	Anchor string
}

// Redirect is one row of the redirect relation (§4.2 stores redirect
// information for use in the link analysis).
type Redirect struct {
	From string
	To   string
}

// ErrNotFound is returned when a document is absent.
var ErrNotFound = errors.New("store: document not found")

// docKey is the identity of a document row: the URL alone for the default
// tenant (preserving the historical key space bit for bit), or tenant and
// URL joined by a NUL byte — a byte that occurs in neither a tenant name
// nor a normalized URL — for named tenants. The key is what the byURL
// maps, shard routing, WAL mutation records and segment meta rows use, so
// tenancy folds into every storage tier without a format change: data
// written before tenancy carries no NUL and splits back as the default
// tenant.
func docKey(tenant, url string) string {
	if tenant == "" {
		return url
	}
	return tenant + "\x00" + url
}

// splitDocKey inverts docKey.
func splitDocKey(key string) (tenant, url string) {
	if i := strings.IndexByte(key, 0); i >= 0 {
		return key[:i], key[i+1:]
	}
	return "", key
}

// key returns the document's routing/identity key.
func (d *Document) key() string { return docKey(d.Tenant, d.URL) }

// Store is safe for concurrent use. The crawl pipeline guarantees a single
// writer per URL (the fetcher's duplicate detection and the frontier's
// seen-set ensure a URL is processed at most once per crawl), which is what
// keeps a replacement's row swap and its WAL record in step.
type Store struct {
	shardBits uint
	mask      uint32 // shard count - 1 (shard counts are powers of two)
	shards    []*storeShard

	inserts   atomic.Int64
	bulkLoads atomic.Int64

	// Disk tier (see tier.go); all nil/zero in a purely in-memory store.
	dir       string
	opt       *TierOptions
	recovery  RecoveryStats
	durable   atomic.Int64
	closeCh   chan struct{}
	compactCh chan struct{}
	compactWG sync.WaitGroup
}

// New returns an empty single-shard store. Its DocIDs are the plain
// sequence 1, 2, 3, … and every read iterates one partition, exactly the
// behavior of the historical unsharded store.
func New() *Store {
	return NewSharded(1)
}

// NewSharded returns an empty store partitioned into p document shards.
// p is clamped to [1, MaxShards] and rounded up to a power of two so
// shard routing is a bit mask.
func NewSharded(p int) *Store {
	if p < 1 {
		p = 1
	}
	if p > MaxShards {
		p = MaxShards
	}
	bits := uint(0)
	for 1<<bits < p {
		bits++
	}
	p = 1 << bits
	s := &Store{shardBits: bits, mask: uint32(p - 1), shards: make([]*storeShard, p)}
	for i := range s.shards {
		s.shards[i] = newStoreShard(i, bits)
	}
	return s
}

// NumShards returns the store's shard count (a power of two).
func (s *Store) NumShards() int { return len(s.shards) }

// ShardBits returns the number of low DocID bits that hold the shard
// index; id >> ShardBits() is the shard-local sequence number.
func (s *Store) ShardBits() uint { return s.shardBits }

// ShardOf returns the shard index encoded in id.
func (s *Store) ShardOf(id DocID) int { return int(uint32(id) & s.mask) }

// ShardForURL returns the shard index url routes to (a default-tenant
// document's routing key is its URL).
func (s *Store) ShardForURL(url string) int { return int(fnv32(url) & s.mask) }

func (s *Store) shardOf(id DocID) *storeShard { return s.shards[uint32(id)&s.mask] }
func (s *Store) shardForKey(key string) *storeShard {
	return s.shards[fnv32(key)&s.mask]
}
func (s *Store) shardForURL(url string) *storeShard {
	return s.shards[fnv32(url)&s.mask]
}

// fnv32 is the 32-bit FNV-1a hash that routes a key to its shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Insert stores one document immediately (the slow per-row path). The
// document's ID is assigned by its shard and returned. A document whose
// (tenant, URL) pair is already present replaces the old row (recrawl).
func (s *Store) Insert(d Document) DocID {
	sh := s.shardForKey(d.key())
	sh.docMu.Lock()
	id := sh.insertDocLocked(d)
	var w *segment.WAL
	if t := sh.tier; t != nil {
		t.addHotLocked(docBytes(&d), 1)
		var e segment.Enc
		e.Byte(walOpDocs)
		e.Uvarint(1)
		walEncodeDoc(&e, int64(id)>>sh.bits, &d)
		w, _ = t.appendWALLocked(e.Bytes())
	}
	sh.docMu.Unlock()
	s.inserts.Add(1)
	mRowInserts.Inc()
	sh.bumpEpoch()
	if t := sh.tier; t != nil {
		s.syncWAL(t, w, 1)
		s.maybeFreeze(sh)
	}
	return id
}

// syncWAL fsyncs w when the store runs with WALSync and advances the
// durable-document counter by docs on success. Called without locks.
func (s *Store) syncWAL(t *shardTier, w *segment.WAL, docs int64) {
	if t == nil || w == nil || !t.opt.WALSync {
		return
	}
	start := time.Now()
	if err := w.Sync(); err != nil {
		t.noteErr(err)
		return
	}
	mWALSyncNanos.ObserveSince(start)
	if docs > 0 {
		s.durable.Add(docs)
	}
}

// Delete removes a default-tenant document by URL.
func (s *Store) Delete(url string) bool { return s.DeleteDoc("", url) }

// DeleteDoc removes tenant's document stored under url.
func (s *Store) DeleteDoc(tenant, url string) bool {
	key := docKey(tenant, url)
	sh := s.shardForKey(key)
	sh.docMu.Lock()
	id, ok := sh.byURL[key]
	var d *Document
	var w *segment.WAL
	if ok {
		d = sh.removeDocLocked(id)
		if d != nil && sh.tier != nil {
			var e segment.Enc
			e.Byte(walOpDelete)
			e.Str(key)
			w, _ = sh.tier.appendWALLocked(e.Bytes())
		}
	}
	sh.docMu.Unlock()
	if d == nil {
		return false
	}
	sh.bumpEpoch()
	s.syncWAL(sh.tier, w, 0)
	return true
}

// Get returns the document stored under id. In a tiered store a cold
// document's Text and Terms are read back from its segment.
func (s *Store) Get(id DocID) (Document, error) {
	sh := s.shardOf(id)
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	d, ok := sh.docs[id]
	if !ok {
		return Document{}, ErrNotFound
	}
	if sh.tier != nil {
		return sh.hydrateLocked(d), nil
	}
	return *d, nil
}

// GetByURL returns the default-tenant document stored under url, hydrated
// like Get.
func (s *Store) GetByURL(url string) (Document, error) { return s.GetDoc("", url) }

// GetDoc returns tenant's document stored under url, hydrated like Get.
func (s *Store) GetDoc(tenant, url string) (Document, error) {
	key := docKey(tenant, url)
	sh := s.shardForKey(key)
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	id, ok := sh.byURL[key]
	if !ok {
		return Document{}, ErrNotFound
	}
	if sh.tier != nil {
		return sh.hydrateLocked(sh.docs[id]), nil
	}
	return *sh.docs[id], nil
}

// Contains reports whether the default tenant stores url.
func (s *Store) Contains(url string) bool { return s.ContainsDoc("", url) }

// ContainsDoc reports whether tenant stores url.
func (s *Store) ContainsDoc(tenant, url string) bool {
	key := docKey(tenant, url)
	sh := s.shardForKey(key)
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	_, ok := sh.byURL[key]
	return ok
}

// NumDocs returns the document count across all shards.
func (s *Store) NumDocs() int {
	n := 0
	for _, sh := range s.shards {
		sh.docMu.RLock()
		n += len(sh.docs)
		sh.docMu.RUnlock()
	}
	return n
}

// Epoch returns the store's monotonic mutation counter — the sum of the
// per-shard epochs. Two equal readings bracket a window with no writes;
// any write in between yields a larger value, which makes the epoch a
// sound cache key where NumDocs is not (delete + insert leaves the count
// unchanged). Derived caches that want to rebuild incrementally key on the
// individual ShardEpoch values instead.
func (s *Store) Epoch() int64 {
	var sum int64
	for _, sh := range s.shards {
		sum += sh.epoch.Load()
	}
	return sum
}

// ShardEpoch returns shard i's mutation counter.
func (s *Store) ShardEpoch(i int) int64 { return s.shards[i].epoch.Load() }

// ShardNumDocs returns shard i's document count.
func (s *Store) ShardNumDocs(i int) int {
	sh := s.shards[i]
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	return len(sh.docs)
}

// ShardMaxSeq returns the highest shard-local sequence number ever
// assigned in shard i; dense per-sequence arrays need ShardMaxSeq+1 slots.
func (s *Store) ShardMaxSeq(i int) int64 {
	sh := s.shards[i]
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	return sh.nextSeq
}

// ShardDocs returns a snapshot of shard i's documents (unordered). In a
// tiered store cold rows come back slim — Terms nil and Text empty; the
// snapshot builder (the only consumer) reads term vectors through
// ColdDocTerms instead, which streams straight from the segment without
// materializing per-document maps.
func (s *Store) ShardDocs(i int) []Document {
	sh := s.shards[i]
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	out := make([]Document, 0, len(sh.docs))
	for _, d := range sh.docs {
		out = append(out, *d)
	}
	return out
}

// MaxDocID returns the highest DocID ever assigned. IDs are never reused,
// so dense per-document arrays indexed by DocID need MaxDocID+1 slots.
func (s *Store) MaxDocID() DocID {
	var max DocID
	for _, sh := range s.shards {
		sh.docMu.RLock()
		if sh.nextSeq > 0 {
			if id := sh.idFor(sh.nextSeq); id > max {
				max = id
			}
		}
		sh.docMu.RUnlock()
	}
	return max
}

// SetTopic reassigns a default-tenant document's topic and confidence
// (re-classification after retraining).
func (s *Store) SetTopic(url, topic string, confidence float64) error {
	return s.SetTopicDoc("", url, topic, confidence)
}

// SetTopicDoc reassigns tenant's document's topic and confidence.
func (s *Store) SetTopicDoc(tenant, url, topic string, confidence float64) error {
	key := docKey(tenant, url)
	sh := s.shardForKey(key)
	sh.docMu.Lock()
	id, ok := sh.byURL[key]
	if !ok {
		sh.docMu.Unlock()
		return ErrNotFound
	}
	sh.setTopicLocked(id, topic, confidence)
	var w *segment.WAL
	if t := sh.tier; t != nil {
		var e segment.Enc
		e.Byte(walOpSetTopic)
		e.Str(key)
		e.Str(topic)
		e.F64(confidence)
		w, _ = t.appendWALLocked(e.Bytes())
	}
	sh.docMu.Unlock()
	sh.bumpEpoch()
	s.syncWAL(sh.tier, w, 0)
	return nil
}

// SetTraining flags or unflags a default-tenant document as training data.
func (s *Store) SetTraining(url string, training bool) error {
	return s.SetTrainingDoc("", url, training)
}

// SetTrainingDoc flags or unflags tenant's document as training data.
func (s *Store) SetTrainingDoc(tenant, url string, training bool) error {
	key := docKey(tenant, url)
	sh := s.shardForKey(key)
	sh.docMu.Lock()
	id, ok := sh.byURL[key]
	if !ok {
		sh.docMu.Unlock()
		return ErrNotFound
	}
	sh.docs[id].IsTraining = training
	sh.noteColdTrainingLocked(id, training)
	var w *segment.WAL
	if t := sh.tier; t != nil {
		var e segment.Enc
		e.Byte(walOpSetTraining)
		e.Str(key)
		e.Bool(training)
		w, _ = t.appendWALLocked(e.Bytes())
	}
	sh.docMu.Unlock()
	sh.bumpEpoch()
	s.syncWAL(sh.tier, w, 0)
	return nil
}

// TenantNumDocs counts the documents belonging to tenant (a full scan;
// intended for admin/stats surfaces, not hot paths).
func (s *Store) TenantNumDocs(tenant string) int {
	n := 0
	for _, sh := range s.shards {
		sh.docMu.RLock()
		for _, d := range sh.docs {
			if d.Tenant == tenant {
				n++
			}
		}
		sh.docMu.RUnlock()
	}
	return n
}

// ByTopic returns the documents assigned to topic across every tenant,
// ordered by descending confidence with URL as the tie-break. (The
// tie-break is by URL, not DocID, so the ordering is identical no matter
// how the store is sharded — IDs encode the shard and would order ties
// differently per layout.)
func (s *Store) ByTopic(topic string) []Document {
	var out []Document
	for _, sh := range s.shards {
		sh.docMu.RLock()
		ids := sh.byTopic[topic]
		for _, id := range ids {
			if sh.tier != nil {
				out = append(out, sh.hydrateLocked(sh.docs[id]))
			} else {
				out = append(out, *sh.docs[id])
			}
		}
		sh.docMu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// ByTopicTenant is ByTopic restricted to one tenant's documents, with the
// same ordering. For a store holding only the default tenant it returns
// exactly what ByTopic does.
func (s *Store) ByTopicTenant(tenant, topic string) []Document {
	all := s.ByTopic(topic)
	out := all[:0]
	for _, d := range all {
		if d.Tenant == tenant {
			out = append(out, d)
		}
	}
	return out
}

// Topics lists the distinct topics with at least one document, sorted.
func (s *Store) Topics() []string {
	seen := make(map[string]struct{})
	for _, sh := range s.shards {
		sh.docMu.RLock()
		for t, ids := range sh.byTopic {
			if len(ids) > 0 {
				seen[t] = struct{}{}
			}
		}
		sh.docMu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// All returns every stored document (unordered snapshot across shards),
// hydrated like Get.
func (s *Store) All() []Document {
	out := make([]Document, 0, s.NumDocs())
	for _, sh := range s.shards {
		sh.docMu.RLock()
		for _, d := range sh.docs {
			if sh.tier != nil {
				out = append(out, sh.hydrateLocked(d))
			} else {
				out = append(out, *d)
			}
		}
		sh.docMu.RUnlock()
	}
	return out
}

// VisitDocs streams every stored document to fn, shard by shard, without
// materializing the whole corpus — the merged read view HITS, clustering,
// feature selection and XML export consume. fn receives a copy of each
// row; returning false stops the walk. fn must not call back into the
// store (the visited shard's document lock is held for the duration of its
// walk).
func (s *Store) VisitDocs(fn func(Document) bool) {
	for _, sh := range s.shards {
		sh.docMu.RLock()
		for _, d := range sh.docs {
			var row Document
			if sh.tier != nil {
				row = sh.hydrateLocked(d)
			} else {
				row = *d
			}
			if !fn(row) {
				sh.docMu.RUnlock()
				return
			}
		}
		sh.docMu.RUnlock()
	}
}

// VisitPostings streams a term's postings to fn shard by shard. Within a
// shard the segment-resident postings come first (tombstone-filtered, in
// sequence order), then the hot rows whose Terms hold the term, in
// ascending DocID. Queries do not call it — they score from the search
// snapshot's own postings — and it is not cheap: besides the segment
// postings it walks every row of every shard. fn must not call back into
// the store (each shard's document lock is read-held for its visit).
func (s *Store) VisitPostings(term string, fn func(doc DocID, tf int)) {
	for _, sh := range s.shards {
		sh.visitAllPostings(term, fn)
	}
}

// visitAllPostings streams term's postings within one shard. Holding
// docMu.RLock across the segment walk and the row walk pins freeze's and
// a recrawl's publication points — a freeze slims rows and publishes their
// segment under one docMu hold, and a recrawl swaps rows under one — so a
// reader sees each document exactly once.
func (sh *storeShard) visitAllPostings(term string, fn func(doc DocID, tf int)) {
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	sh.visitTierPostings(term, fn)
	var ids []DocID
	for id, d := range sh.docs {
		if d.Terms[term] > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, sh.docs[id].Terms[term])
	}
}

// DocFreq returns the number of documents containing term, at the cost
// VisitPostings states.
func (s *Store) DocFreq(term string) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.termDocFreq(term)
	}
	return n
}

// termDocFreq counts term's documents in one shard: its segments'
// (tombstone-filtered) plus its hot rows'.
func (sh *storeShard) termDocFreq(term string) int {
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	n := sh.tierDocFreq(term)
	for _, d := range sh.docs {
		if d.Terms[term] > 0 {
			n++
		}
	}
	return n
}

// AddLink records a hyperlink row: the out-link row lands on the source
// URL's shard (and, when tiered, in its hot capture and WAL), the in-link
// index entry on the target URL's shard.
func (s *Store) AddLink(l Link) {
	shFrom := s.shardForURL(l.From)
	shFrom.linkMu.Lock()
	shFrom.outLinks[l.From] = append(shFrom.outLinks[l.From], l)
	if t := shFrom.tier; t != nil {
		t.hotOut = append(t.hotOut, l)
		var e segment.Enc
		walEncodeLinks(&e, []Link{l})
		t.appendWALLocked(e.Bytes())
	}
	shFrom.linkMu.Unlock()
	shTo := s.shardForURL(l.To)
	shTo.linkMu.Lock()
	shTo.inLinks[l.To] = append(shTo.inLinks[l.To], l)
	shTo.linkMu.Unlock()
	shFrom.bumpEpoch()
	if shTo != shFrom {
		shTo.bumpEpoch()
	}
}

// AddRedirect records a redirect row on the source URL's shard.
func (s *Store) AddRedirect(r Redirect) {
	sh := s.shardForURL(r.From)
	sh.redirMu.Lock()
	sh.redirects = append(sh.redirects, r)
	if t := sh.tier; t != nil {
		t.hotRedir = append(t.hotRedir, r)
		var e segment.Enc
		e.Byte(walOpRedirects)
		e.Uvarint(1)
		e.Str(r.From)
		e.Str(r.To)
		t.appendWALLocked(e.Bytes())
	}
	sh.redirMu.Unlock()
	sh.bumpEpoch()
}

// Successors returns the target URLs linked from url.
func (s *Store) Successors(url string) []string {
	sh := s.shardForURL(url)
	sh.linkMu.RLock()
	defer sh.linkMu.RUnlock()
	ls := sh.outLinks[url]
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.To
	}
	return out
}

// Predecessors returns the URLs linking to url, read from url's shard's
// in-link index: in write order while live, and after a reopen in rebuilt
// order (shard by shard, segments then WAL, rows in file order).
func (s *Store) Predecessors(url string) []string {
	sh := s.shardForURL(url)
	sh.linkMu.RLock()
	defer sh.linkMu.RUnlock()
	ls := sh.inLinks[url]
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.From
	}
	return out
}

// InAnchors returns the anchor texts of links pointing at url (for the
// anchor-text feature space).
func (s *Store) InAnchors(url string) []string {
	sh := s.shardForURL(url)
	sh.linkMu.RLock()
	defer sh.linkMu.RUnlock()
	ls := sh.inLinks[url]
	out := make([]string, 0, len(ls))
	for _, l := range ls {
		if l.Anchor != "" {
			out = append(out, l.Anchor)
		}
	}
	return out
}

// Links returns a snapshot of every link row. Each link is stored once in
// its source shard's out-link table, so the concatenation has no
// duplicates.
func (s *Store) Links() []Link {
	var out []Link
	for _, sh := range s.shards {
		sh.linkMu.RLock()
		for _, ls := range sh.outLinks {
			out = append(out, ls...)
		}
		sh.linkMu.RUnlock()
	}
	return out
}

// VisitLinks streams every link row to fn, shard by shard (the merged read
// view for link analysis). Returning false stops the walk; fn must not
// call back into the store.
func (s *Store) VisitLinks(fn func(Link) bool) {
	for _, sh := range s.shards {
		sh.linkMu.RLock()
		for _, ls := range sh.outLinks {
			for _, l := range ls {
				if !fn(l) {
					sh.linkMu.RUnlock()
					return
				}
			}
		}
		sh.linkMu.RUnlock()
	}
}

// Redirects returns a snapshot of the redirect relation across shards.
func (s *Store) Redirects() []Redirect {
	var out []Redirect
	for _, sh := range s.shards {
		sh.redirMu.RLock()
		out = append(out, sh.redirects...)
		sh.redirMu.RUnlock()
	}
	return out
}

// Counters reports write-path statistics (row inserts vs bulk loads).
func (s *Store) Counters() (inserts, bulkLoads int64) {
	return s.inserts.Load(), s.bulkLoads.Load()
}
