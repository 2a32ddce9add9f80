// This file implements the sharded snapshot read path. Search state is
// two-layered:
//
//   - shardSnap: one immutable snapshot per store shard — dense-by-sequence
//     document rows, the shard's term vectors in CSR layout with
//     precomputed 1+log(tf) factors, the same entries inverted into
//     term-major postings, the shard-local vocabulary with its document
//     frequencies, and a lazy stem cache. A shardSnap is keyed on
//     its shard's mutation epoch and is rebuilt only when that shard
//     changed, and a rebuild carries every row the previous snap of the
//     shard already holds, so rebuild cost under writes is O(rows written)
//     plus a copy of the changed shards, not O(corpus) term-vector reads.
//
//   - searchView: the per-epoch-vector global view gluing the shard snaps
//     together — the merged idf table (per-shard df counts are summed as
//     integers, so the merge is exact and order-independent) and the
//     per-shard tf·idf norm vectors recomputed against the merged idf (a
//     dense multiply-add pass over the CSR vectors; no hashing, no log()).
//
// Queries scatter term-at-a-time scoring across the shard snaps' own
// postings (in parallel when the corpus is big enough to pay for it), so a
// non-phrase query reads nothing from the store; they reduce the
// order-independent component maxima, combine scores per shard into
// bounded top-K heaps, and merge the heaps with the deterministic
// score/URL tie-break — the result list is bit-identical to the same
// engine over a single-shard store.
//
// Snapshot lifecycle is observable through search_snapshot_rebuilds_total
// (view rebuilds), search_shard_snapshot_rebuilds_total /
// search_shard_snapshots_reused_total (the dirty-shard economy),
// search_shard_docs_rebuilt_total / search_shard_docs_carried_total (rows
// read from the store vs carried from the previous snap),
// search_snapshot_build_nanos and search_stale_serves_total; a rising
// stale-serve rate means writers are outpacing rebuilds and queries are
// trading freshness for latency.

package search

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/vsm"
)

// Per-shard snapshot economy: rebuilds vs reuses, and how the rebuilds'
// document rows were filled — materialized from the store (a term vector
// read or a hot Terms map sorted) or carried from the previous snap of the
// shard. Dirty-shard tracking shows up as reuses; carrying shows up as
// docs rebuilt tracking the documents written, not the shards' size.
var (
	mShardRebuilds    = metrics.NewCounter("search_shard_snapshot_rebuilds_total")
	mShardReused      = metrics.NewCounter("search_shard_snapshots_reused_total")
	mShardDocsRebuilt = metrics.NewCounter("search_shard_docs_rebuilt_total")
	mShardDocsCarried = metrics.NewCounter("search_shard_docs_carried_total")
)

// parallelMinDocs gates the parallel scatter: below this corpus size the
// goroutine fan-out costs more than the scoring it spreads.
const parallelMinDocs = 4096

// shardSnap is the immutable snapshot of one store shard, dense by
// shard-local sequence number (index 0 unused; ID == 0 marks a hole from a
// deleted or never-assigned sequence). Document seq owns the CSR range
// termIDs[docOff[seq]:docOff[seq+1]] (parallel to logtf), sorted by term
// string so every float accumulation over a document's terms has one
// deterministic order regardless of shard count or map iteration.
//
// The postings are the same entries inverted: term tid owns
// postSeq[postOff[tid]:postOff[tid+1]] (parallel to postW), sequence-
// ascending. They are the snap's own, so a query is answered from the
// snap's document set alone, whatever the store did since the build.
// Heap cost is 24 bytes per CSR entry (4+8 forward, 4+8 inverted), plus
// postOff and the tids map per vocabulary term.
type shardSnap struct {
	epoch   int64
	shard   int
	numDocs int // live documents

	docs []store.Document

	docOff  []int32
	termIDs []int32
	logtf   []float64 // 1+log(tf) per CSR entry, precomputed once

	terms []string         // shard vocabulary by termID
	tids  map[string]int32 // termID by term, the inverse of terms
	df    []int32          // shard-local document frequency by termID

	postOff []int32   // by termID, len(terms)+1; postings count = df
	postSeq []int32   // document sequence per posting
	postW   []float64 // 1+log(tf) per posting, the bits logtf holds

	// stems caches each document's stem sequence for phrase filtering,
	// filled lazily on the first phrase query that inspects the document.
	// Concurrent fills compute the same value; last store wins. The cache
	// rides along when a clean shard's snap is reused across views, and an
	// unchanged row's entry is carried into its dirty shard's next snap.
	stems []atomic.Pointer[[]string]
}

// searchView is the immutable global read state for one per-shard epoch
// vector: the shard snaps, the merged idf table, and the per-shard norm
// vectors in that idf space. Views are swapped atomically; in-flight
// queries keep the one they loaded. Every input a non-phrase query scores
// from — rows, postings, norms, idf — lives in the view, so a pinned
// version answers the same way however the store moves on after it.
type searchView struct {
	epochs  []int64 // per-shard epochs the view was built against
	shards  []*shardSnap
	idf     *vsm.IDFTable
	norms   [][]float64 // [shard][seq] tf·idf norm under the merged idf
	numDocs int

	// auth holds HITS authority scores dense by [shard][seq], computed
	// lazily on the first authority-weighted query against this view. A
	// Partition's views leave it nil and keep pushed scores on partView.
	authOnce sync.Once
	auth     [][]float64
}

// buildShardSnap materializes shard si. The shard epoch is captured before
// any relation is read, so a concurrent write can only make the snap carry
// *newer* data than its epoch claims — the next query then observes the
// larger shard epoch and triggers another rebuild, never serving data
// older than the recorded epoch.
//
// Rows come from ShardDocs, so deletes are current, and a row that base —
// an older snap of the same shard, or nil — already holds under the same
// DocID has its term vector and stem-cache entry carried over instead of
// re-read: a DocID's row never changes (see store.DocID). Carried termIDs are remapped through the
// same first-appearance interning a fresh build uses, walking seq
// ascending, so the result is field-for-field identical to
// buildShardSnap(st, si, nil) and every float keeps its summation order.
// The postings are then rebuilt from the forward CSR (invertPostings), a
// linear pass over the rebuilt shard only.
func buildShardSnap(st *store.Store, si int, base *shardSnap) *shardSnap {
	epoch := st.ShardEpoch(si)
	docs := st.ShardDocs(si)
	bits := st.ShardBits()
	maxSeq := st.ShardMaxSeq(si)
	for i := range docs {
		if seq := int64(docs[i].ID) >> bits; seq > maxSeq {
			maxSeq = seq
		}
	}
	n := int(maxSeq) + 1
	sn := &shardSnap{
		epoch:   epoch,
		shard:   si,
		numDocs: len(docs),
		docs:    make([]store.Document, n),
		docOff:  make([]int32, n+1),
		tids:    make(map[string]int32, 256),
		stems:   make([]atomic.Pointer[[]string], n),
	}
	for i := range docs {
		sn.docs[int64(docs[i].ID)>>bits] = docs[i]
	}
	type termEntry struct {
		term string
		tf   int
	}
	tidOf := func(term string) int32 {
		tid, ok := sn.tids[term]
		if !ok {
			tid = int32(len(sn.terms))
			sn.tids[term] = tid
			sn.terms = append(sn.terms, term)
			sn.df = append(sn.df, 0)
		}
		return tid
	}
	addTerm := func(term string, tf int) {
		tid := tidOf(term)
		sn.df[tid]++
		sn.termIDs = append(sn.termIDs, tid)
		sn.logtf = append(sn.logtf, 1+math.Log(float64(tf)))
	}
	// remap translates base termIDs to this snap's (-1 = not yet interned).
	var remap []int32
	if base != nil {
		remap = make([]int32, len(base.terms))
		for i := range remap {
			remap[i] = -1
		}
	}
	carried := 0
	tiered := st.Tiered()
	var coldBuf []store.TermTF
	var scratch []termEntry
	for seq := 1; seq < n; seq++ {
		sn.docOff[seq] = int32(len(sn.termIDs))
		d := &sn.docs[seq]
		if d.ID == 0 {
			continue
		}
		if base != nil && seq < len(base.docs) && base.docs[seq].ID == d.ID {
			for j := base.docOff[seq]; j < base.docOff[seq+1]; j++ {
				btid := base.termIDs[j]
				tid := remap[btid]
				if tid < 0 {
					tid = tidOf(base.terms[btid])
					remap[btid] = tid
				}
				sn.df[tid]++
				sn.termIDs = append(sn.termIDs, tid)
				sn.logtf = append(sn.logtf, base.logtf[j])
			}
			if p := base.stems[seq].Load(); p != nil {
				sn.stems[seq].Store(p)
			}
			carried++
			continue
		}
		if d.Terms == nil && tiered {
			// Cold document: ShardDocs returned a slim row. The segment
			// term vector is already sorted by term, so it feeds the CSR
			// directly — no map materialization, no sort. Iterating seqs
			// ascending keeps the segment reads sequential.
			if vec, ok := st.ColdDocTerms(d.ID, coldBuf[:0]); ok {
				for _, tc := range vec {
					if tc.TF > 0 {
						addTerm(tc.Term, tc.TF)
					}
				}
				coldBuf = vec
				continue
			}
		}
		scratch = scratch[:0]
		for term, tf := range d.Terms {
			if tf > 0 {
				scratch = append(scratch, termEntry{term, tf})
			}
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].term < scratch[b].term })
		for _, te := range scratch {
			addTerm(te.term, te.tf)
		}
	}
	sn.docOff[n] = int32(len(sn.termIDs))
	sn.invertPostings()
	mShardDocsCarried.Add(int64(carried))
	mShardDocsRebuilt.Add(int64(sn.numDocs - carried))
	return sn
}

// invertPostings counting-sorts the forward CSR into the term-major
// postings. df[tid] is exactly the number of entries with termID tid, so
// it sizes each term's range; walking seq ascending leaves every range
// sequence-ascending, and postW copies logtf, so scoring from the postings
// multiplies the very bits the norms were summed from.
func (sn *shardSnap) invertPostings() {
	sn.postOff = make([]int32, len(sn.terms)+1)
	for tid, n := range sn.df {
		sn.postOff[tid+1] = sn.postOff[tid] + n
	}
	next := make([]int32, len(sn.terms))
	copy(next, sn.postOff)
	sn.postSeq = make([]int32, len(sn.termIDs))
	sn.postW = make([]float64, len(sn.termIDs))
	for seq := 1; seq < len(sn.docs); seq++ {
		for j := sn.docOff[seq]; j < sn.docOff[seq+1]; j++ {
			tid := sn.termIDs[j]
			p := next[tid]
			next[tid]++
			sn.postSeq[p] = int32(seq)
			sn.postW[p] = sn.logtf[j]
		}
	}
}

// snapshot returns a search view current for the store's per-shard epochs,
// rebuilding off the engine's locks when stale. Rebuilds are
// singleflighted: the caller that wins buildMu rebuilds synchronously (so
// a sequential insert-then-search always observes its own write), while
// callers arriving during a rebuild keep serving the previous view instead
// of blocking. Only the very first query of an engine waits. A rebuild
// reuses every shard snap whose epoch is unchanged — only dirty shards are
// rebuilt, carrying their unchanged rows.
func (e *Engine) snapshot() *searchView {
	if v := e.view.Load(); v != nil && e.viewCurrent(v) {
		return v
	}
	if e.buildMu.TryLock() {
		defer e.buildMu.Unlock()
		if v := e.view.Load(); v != nil && e.viewCurrent(v) {
			return v
		}
		v := e.rebuildView()
		e.view.Store(v)
		return v
	}
	// A rebuild is in flight on another goroutine: serve stale.
	if v := e.view.Load(); v != nil {
		mStaleServes.Inc()
		return v
	}
	// No view published yet — wait for the first build to finish.
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if v := e.view.Load(); v != nil && e.viewCurrent(v) {
		return v
	}
	v := e.rebuildView()
	e.view.Store(v)
	return v
}

// viewCurrent reports whether v matches the store's per-shard epochs.
func (e *Engine) viewCurrent(v *searchView) bool {
	if len(v.epochs) != e.store.NumShards() {
		return false
	}
	for i, ep := range v.epochs {
		if e.store.ShardEpoch(i) != ep {
			return false
		}
	}
	return true
}

// rebuildView runs under the caller-held buildMu: rebuild the dirty shard
// snaps over the current view's, reuse the clean ones, then rebuild the
// global layer (merged idf, per-shard norms) over them.
func (e *Engine) rebuildView() *searchView {
	mSnapRebuilds.Inc()
	start := time.Now()
	var prev []*shardSnap
	if v := e.view.Load(); v != nil {
		prev = v.shards
	}
	shards := currentSnaps(e.store, prev)

	// Merged idf: per-shard df counts sum exactly (integers), so the
	// resulting idf floats are identical no matter how the corpus is
	// partitioned.
	df, total := mergeDocFreq(shards)
	v := finishView(shards, vsm.TableFromDocFreq(df, total), total)
	mSnapBuildNanos.ObserveSince(start)
	return v
}

// currentSnaps returns one snap per store shard at the shard's current
// epoch: a snap from one of the olds generations whose epoch is unchanged is
// reused, every other shard is rebuilt over the newest old snap of that
// shard, carrying its unchanged rows — the dirty-shard economy that keeps
// rebuild cost under localized writes O(changed shards), and a flush's
// rebuild cost O(rows it wrote).
func currentSnaps(st *store.Store, olds ...[]*shardSnap) []*shardSnap {
	snaps := make([]*shardSnap, st.NumShards())
	for i := range snaps {
		ep := st.ShardEpoch(i)
		var base *shardSnap
		for _, old := range olds {
			if i >= len(old) {
				continue
			}
			if old[i].epoch == ep {
				snaps[i] = old[i]
				break
			}
			if base == nil || old[i].epoch > base.epoch {
				base = old[i]
			}
		}
		if snaps[i] != nil {
			mShardReused.Inc()
			continue
		}
		snaps[i] = buildShardSnap(st, i, base)
		mShardRebuilds.Inc()
	}
	return snaps
}

// mergeDocFreq sums the shard-local document frequencies into one global
// df table plus the live document count. Counts are integers, so the merge
// is exact and order-independent — the property that keeps the global idf
// bit-identical no matter how the corpus is partitioned, across shards in
// one process or across shard servers on the network (the coordinator runs
// the same integer merge over per-server stats).
func mergeDocFreq(shards []*shardSnap) (df map[string]int, numDocs int) {
	vocab := 0
	for _, sn := range shards {
		vocab += len(sn.terms)
		numDocs += sn.numDocs
	}
	df = make(map[string]int, vocab)
	for _, sn := range shards {
		for tid, term := range sn.terms {
			df[term] += int(sn.df[tid])
		}
	}
	return df, numDocs
}

// finishView assembles the global layer of a view over already-built shard
// snaps: per-shard tf·idf norms under the supplied idf table — a dense
// multiply-add pass over the CSR vectors (the 1+log(tf) factors are
// precomputed, the idf is resolved once per shard term) — the only
// per-document work a clean shard pays when some other shard changed.
// numDocs is the view's local live-document count (it gates the parallel
// scatter); the idf table itself may have been computed over a larger,
// global corpus when the caller is a distributed Partition.
func finishView(shards []*shardSnap, idf *vsm.IDFTable, numDocs int) *searchView {
	v := &searchView{
		epochs:  make([]int64, len(shards)),
		shards:  shards,
		idf:     idf,
		norms:   make([][]float64, len(shards)),
		numDocs: numDocs,
	}
	for i, sn := range shards {
		v.epochs[i] = sn.epoch
		idfByTID := make([]float64, len(sn.terms))
		for tid, term := range sn.terms {
			idfByTID[tid] = idf.IDF(term)
		}
		norm := make([]float64, len(sn.docs))
		for seq := 1; seq < len(sn.docs); seq++ {
			if sn.docs[seq].ID == 0 {
				continue
			}
			var sum float64
			for j := sn.docOff[seq]; j < sn.docOff[seq+1]; j++ {
				w := sn.logtf[j] * idfByTID[sn.termIDs[j]]
				sum += w * w
			}
			norm[seq] = math.Sqrt(sum)
		}
		v.norms[i] = norm
	}
	return v
}

// docStems returns document seq's stem sequence for phrase matching,
// cached per shard snap so repeated phrase queries stem each document at
// most once — and, because snaps are reused across views and rebuilds
// carry the entry forward, at most once per DocID.
func (sn *shardSnap) docStems(pipe *textproc.Pipeline, st *store.Store, seq int) []string {
	if p := sn.stems[seq].Load(); p != nil {
		return *p
	}
	d := &sn.docs[seq]
	text := d.Text
	if d.Terms == nil && st != nil && st.Tiered() {
		// Cold document: the slim row carries no body; read it through the
		// segment tier. The stem cache means each document pays this once.
		if t, ok := st.DocText(d.ID); ok {
			text = t
		}
	}
	stems := pipe.StemsParts(d.Title, text)
	sn.stems[seq].Store(&stems)
	return stems
}

// authorityScores returns the view's dense authority vectors, running HITS
// over the stored link graph once per view. The edge feed is sorted
// (From, To) before graph construction so node numbering — and therefore
// the floating-point summation order inside HITS — is identical no matter
// which shards the link rows came from.
func (v *searchView) authorityScores(st *store.Store) [][]float64 {
	v.authOnce.Do(func() {
		var links []store.Link
		st.VisitLinks(func(l store.Link) bool {
			links = append(links, l)
			return true
		})
		v.auth = v.denseAuthority(AuthorityFromLinks(links))
	})
	return v.auth
}

// AuthorityFromLinks runs HITS over a link set and returns per-URL
// authority scores. The edges are sorted (From, To) before graph
// construction so node numbering — and therefore the floating-point
// summation order inside HITS — is identical no matter which shards (or
// shard servers) the link rows came from; the coordinator relies on this
// to compute, from the union of every server's links, the same authority
// values a single process computes from its local graph. The input slice
// is reordered in place.
func AuthorityFromLinks(links []store.Link) map[string]float64 {
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	g := hits.NewGraph()
	for _, l := range links {
		g.AddEdge(l.From, hits.HostOf(l.From), l.To, hits.HostOf(l.To))
	}
	res := g.Run(hits.DefaultOptions())
	byURL := make(map[string]float64, len(res.Authorities))
	for _, sc := range res.Authorities {
		byURL[sc.ID] = sc.Value
	}
	return byURL
}

// denseAuthority densifies per-URL authority scores into per-shard [seq]
// vectors over the view's documents.
func (v *searchView) denseAuthority(byURL map[string]float64) [][]float64 {
	auth := make([][]float64, len(v.shards))
	for si, sn := range v.shards {
		a := make([]float64, len(sn.docs))
		for i := range sn.docs {
			if sn.docs[i].ID != 0 {
				a[i] = byURL[sn.docs[i].URL]
			}
		}
		auth[si] = a
	}
	return auth
}

// topEntry is one candidate in a bounded top-K heap: shard index plus
// shard-local sequence.
type topEntry struct {
	si    int32
	seq   int32
	score float64
}

// shardScratch is the reusable per-shard scoring state. acc and matched
// are dense by shard-local sequence and reset lazily: only the entries
// named in cand are touched, so reset cost is proportional to the
// candidate set, not the corpus. During a parallel scatter each goroutine
// owns exactly one shardScratch, so the scatter shares no mutable state.
type shardScratch struct {
	shard   int
	acc     []float64 // per-doc accumulated dot product, later cosine
	matched []int32   // per-doc count of distinct query terms (-1 = filtered)
	cand    []int     // touched sequence numbers, in first-touch order
	heap    []topEntry

	snap *shardSnap // the view's snap of this shard
	norm []float64  // the view's norms of this shard

	// Pass-1 partials, reduced across shards after the scatter.
	maxCos, maxConf, maxAuth float64
	survivors                int
}

func newShardScratch(shard int) *shardScratch { return &shardScratch{shard: shard} }

// scoreScratch is the pooled per-query scoring state: one shardScratch per
// store shard plus the plan's term list and the heap-merge buffer.
// getScratch sizes a fresh (or layout-changed) scratch for the view in
// hand, so the pool constructor stays trivial.
type scoreScratch struct {
	view   *searchView
	shards []*shardScratch
	qterms []PlanTerm
	merged []topEntry
	rest   []topEntry // skyband candidates the top-K bounds could not prune
	sky    []skyRow   // the skyband's shipped rows

	// Per-query scatter inputs, parked by fillPlan. They live in the
	// (heap-pooled) scratch rather than being captured by the parallel
	// fan-out — a goroutine closure over stack parameters would force them
	// to escape and cost two heap boxes per query even on the sequential
	// path. uniqCount is the number of unique query terms (the Exact-mode
	// match threshold).
	q         Query
	phrases   [][]string
	uniqCount int
	qnorm     float64
	auth      [][]float64
}

// worse reports whether entry a ranks strictly below entry b in the final
// ordering: lower score, or equal score and lexicographically larger URL
// (the deterministic tie-break the full sort used). It is total across
// shards, which is what makes the scatter-gather merge order-independent.
func (qs *scoreScratch) worse(a, b topEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return qs.view.shards[a.si].docs[a.seq].URL > qs.view.shards[b.si].docs[b.seq].URL
}

// pushTopK offers en to sc's bounded heap keeping the k best entries. The
// heap is a min-heap under worse: the root is the worst entry retained,
// so an offer either replaces the root or is dropped in O(1)+O(log k).
func (qs *scoreScratch) pushTopK(sc *shardScratch, k int, en topEntry) {
	h := sc.heap
	if len(h) < k {
		h = append(h, en)
		c := len(h) - 1
		for c > 0 {
			p := (c - 1) / 2
			if !qs.worse(h[c], h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
		sc.heap = h
		return
	}
	if !qs.worse(h[0], en) {
		return
	}
	h[0] = en
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && qs.worse(h[l], h[min]) {
			min = l
		}
		if r < len(h) && qs.worse(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func newScoreScratch() *scoreScratch { return &scoreScratch{} }

// getScratch sizes a pooled scratch for a view's shard layout.
func (e *Engine) getScratch(v *searchView) *scoreScratch {
	qs := e.scratch.Get().(*scoreScratch)
	if len(qs.shards) != len(v.shards) {
		qs.shards = make([]*shardScratch, len(v.shards))
		for i := range qs.shards {
			qs.shards[i] = newShardScratch(i)
		}
	}
	for i, sc := range qs.shards {
		sn := v.shards[i]
		if n := len(sn.docs); len(sc.acc) < n {
			sc.acc = make([]float64, n)
			sc.matched = make([]int32, n)
		}
		sc.snap = sn
		sc.norm = v.norms[i]
	}
	qs.view = v
	return qs
}

// putScratch zeroes the touched dense entries and returns qs to the pool.
func (e *Engine) putScratch(qs *scoreScratch) {
	for _, sc := range qs.shards {
		for _, i := range sc.cand {
			sc.acc[i] = 0
			sc.matched[i] = 0
		}
		sc.cand = sc.cand[:0]
		sc.heap = sc.heap[:0]
		sc.snap = nil
		sc.norm = nil
	}
	qs.qterms = qs.qterms[:0]
	qs.merged = qs.merged[:0]
	qs.rest = qs.rest[:0]
	clear(qs.sky)
	qs.sky = qs.sky[:0]
	qs.view = nil
	qs.q = Query{}
	qs.phrases = nil
	qs.uniqCount = 0
	qs.qnorm = 0
	qs.auth = nil
	e.scratch.Put(qs)
}

// gatherHits merges the bounded per-shard heaps and assembles the ranked
// hit list: sort with the same comparator the heaps used — the union of
// per-shard top-Ks is a superset of the global top-K, so truncating the
// merged order to limit yields exactly the single-shard result — then
// normalize each hit's components against the supplied maxima. On the
// single-process path the maxima come straight from reduceScatter; on the
// distributed path the coordinator reduces them across every shard server
// first, which is what keeps the normalized components (and therefore the
// scores) bit-identical across deployments.
//
// A hit is the snapshot row and nothing else: gatherHits never reads the
// store, and it clears Text and Terms on every hit — hot, cold or untiered —
// so the tier a document happens to sit in never decides what a caller
// sees. Callers that render a body fetch it with store.DocText.
func gatherHits(qs *scoreScratch, limit int, maxCos, maxConf, maxAuth float64) []Hit {
	v := qs.view
	auth := qs.auth
	total := 0
	for _, sc := range qs.shards {
		total += len(sc.heap)
	}
	mTopKHeap.Observe(int64(total))
	qs.mergeHeaps(limit)
	out := make([]Hit, len(qs.merged))
	for n, en := range qs.merged {
		sn := v.shards[en.si]
		sc := qs.shards[en.si]
		doc := sn.docs[en.seq]
		doc.Text, doc.Terms = "", nil
		var a float64
		if auth != nil {
			a = auth[en.si][en.seq]
		}
		h := Hit{Doc: doc, Score: en.score}
		h.Cosine, h.Confidence, h.Authority = normComponents(sc.acc[en.seq], doc.Confidence, a, maxCos, maxConf, maxAuth, auth != nil)
		out[n] = h
	}
	return out
}

// mergeHeaps concatenates the per-shard top-K heaps into qs.merged, sorts
// them with the comparator the heaps used, and keeps the best limit.
func (qs *scoreScratch) mergeHeaps(limit int) {
	for _, sc := range qs.shards {
		qs.merged = append(qs.merged, sc.heap...)
	}
	sort.Slice(qs.merged, func(a, b int) bool { return qs.worse(qs.merged[b], qs.merged[a]) })
	if len(qs.merged) > limit {
		qs.merged = qs.merged[:limit]
	}
}

// scatterAll runs the pass-1 scatter over every shard of qs's view —
// accumulate and filter each shard independently, in parallel when the
// corpus is large enough to pay for the fan-out. The query inputs must
// already be parked in qs.
func (e *Engine) scatterAll(qs *scoreScratch) {
	if len(qs.shards) > 1 && qs.view.numDocs >= parallelMinDocs && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for _, sc := range qs.shards {
			wg.Add(1)
			go e.scatterShard(&wg, qs, sc)
		}
		wg.Wait()
	} else {
		for _, sc := range qs.shards {
			e.scatterShard(nil, qs, sc)
		}
	}
}

// reduceScatter folds the per-shard pass-1 partials into the global
// component maxima and candidate/survivor counts. Maxima are
// order-independent, so the reduction is deterministic regardless of
// scatter scheduling — and the same max() fold applied again across shard
// servers on the coordinator yields the identical global maxima.
func reduceScatter(qs *scoreScratch) (maxCos, maxConf, maxAuth float64, candidates, survivors int) {
	for _, sc := range qs.shards {
		candidates += len(sc.cand)
		survivors += sc.survivors
		if sc.maxCos > maxCos {
			maxCos = sc.maxCos
		}
		if sc.maxConf > maxConf {
			maxConf = sc.maxConf
		}
		if sc.maxAuth > maxAuth {
			maxAuth = sc.maxAuth
		}
	}
	return maxCos, maxConf, maxAuth, candidates, survivors
}

// passTwo combines the normalized components under the supplied maxima
// (rankScore, the one scoring function the coordinator's skyband merge
// calls too) and keeps each shard's top `limit` entries in its bounded
// heap. Per-candidate work is a handful of float ops; the scatter already
// did the heavy lifting. The maxima must be global — reduced across every shard that
// scored the query, including remote ones on the distributed path — or the
// component normalization (and so the score order) diverges from the
// single-process result.
func (e *Engine) passTwo(qs *scoreScratch, limit int, maxCos, maxConf, maxAuth float64) {
	w := qs.q.Weights
	auth := qs.auth
	for _, sc := range qs.shards {
		var shardAuth []float64
		if auth != nil {
			shardAuth = auth[sc.shard]
		}
		for _, i := range sc.cand {
			if sc.matched[i] < 0 {
				continue
			}
			var a float64
			if shardAuth != nil {
				a = shardAuth[i]
			}
			score := rankScore(w, sc.acc[i], sc.snap.docs[i].Confidence, a, maxCos, maxConf, maxAuth, shardAuth != nil)
			qs.pushTopK(sc, limit, topEntry{si: int32(sc.shard), seq: int32(i), score: score})
		}
	}
}

// scatterShard runs one shard's accumulate + pass-1: term-at-a-time
// accumulation (acc[d] += wq(t)·(1+log(tf_d))·idf(t)) over the snap's
// postings, then filtering, cosines, and the shard-local component
// maxima. It mutates only sc and reads the immutable view and the query
// inputs parked in qs by fillPlan — the store only for a phrase filter's
// stem cache misses — so shards scatter concurrently without shared
// mutable state. wg is non-nil only on the parallel path.
func (e *Engine) scatterShard(wg *sync.WaitGroup, qs *scoreScratch, sc *shardScratch) {
	if wg != nil {
		defer wg.Done()
	}
	q, phrases, qnorm, auth := qs.q, qs.phrases, qs.qnorm, qs.auth
	sc.maxCos, sc.maxConf, sc.maxAuth, sc.survivors = 0, 0, 0, 0
	sn := sc.snap
	for i := range qs.qterms {
		tid, ok := sn.tids[qs.qterms[i].Term]
		if !ok {
			continue
		}
		termW, termIDF := qs.qterms[i].W, qs.qterms[i].IDF
		lo, hi := sn.postOff[tid], sn.postOff[tid+1]
		ws := sn.postW[lo:hi]
		for k, seq := range sn.postSeq[lo:hi] {
			if sc.matched[seq] == 0 {
				sc.cand = append(sc.cand, int(seq))
				sc.acc[seq] = 0
			}
			sc.matched[seq]++
			sc.acc[seq] += termW * ws[k] * termIDF
		}
	}
	if len(sc.cand) == 0 {
		return
	}
	exactNeed := int32(0)
	if q.Exact {
		exactNeed = int32(qs.uniqCount)
	}
	topicFilter := q.Topic
	topicPrefix := ""
	if topicFilter != "" {
		topicPrefix = topicFilter + "/"
	}
	var shardAuth []float64
	if auth != nil {
		shardAuth = auth[sc.shard]
	}
	for _, i := range sc.cand {
		d := &sc.snap.docs[i]
		if d.Tenant != q.Tenant ||
			(exactNeed > 0 && sc.matched[i] < exactNeed) ||
			(topicFilter != "" && d.Topic != topicFilter && !strings.HasPrefix(d.Topic, topicPrefix)) ||
			(len(phrases) > 0 && !phrasesMatch(sc.snap.docStems(e.planner.pipe, e.store, i), phrases)) {
			sc.matched[i] = -1
			continue
		}
		sc.survivors++
		var c float64
		if qnorm > 0 && sc.norm[i] > 0 {
			c = sc.acc[i] / (qnorm * sc.norm[i])
		}
		sc.acc[i] = c
		if c > sc.maxCos {
			sc.maxCos = c
		}
		if d.Confidence > sc.maxConf {
			sc.maxConf = d.Confidence
		}
		if shardAuth != nil && shardAuth[i] > sc.maxAuth {
			sc.maxAuth = shardAuth[i]
		}
	}
}

// sortQTerms orders query terms lexicographically with an in-place
// insertion sort — query term counts are tiny, and sort.Slice would
// allocate in the zero-alloc scoring loop.
func sortQTerms(qt []PlanTerm) {
	for i := 1; i < len(qt); i++ {
		for j := i; j > 0 && qt[j].Term < qt[j-1].Term; j-- {
			qt[j], qt[j-1] = qt[j-1], qt[j]
		}
	}
}

// phrasesMatch reports whether every phrase occurs consecutively in the
// document's cached stem sequence.
func phrasesMatch(docStems []string, phrases [][]string) bool {
	for _, p := range phrases {
		if !containsSeq(docStems, p) {
			return false
		}
	}
	return true
}
