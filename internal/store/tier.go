package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/segment"
)

// This file implements the store's disk-native tier. A tiered store keeps
// the working set of each shard — documents inserted since the shard's
// last freeze — fully in memory, exactly like an untiered store, and keeps
// the rest as immutable on-disk segments plus slim in-memory rows
// (everything but Text and Terms, which dominate per-document memory).
// Every write is also appended to a per-shard CRC-framed WAL before it is
// acknowledged, so the mutable tier is exactly the WAL tail replayed and a
// SIGKILL loses nothing that was acknowledged.
//
// The lifecycle is LSM-shaped:
//
//	write  → memory + WAL append (one fsync per workspace flush)
//	freeze → hot docs become a segment; rows are slimmed, so their terms
//	         are read from the segment from then on; the WAL rotates and
//	         the old generation is deleted once the manifest commits
//	compact→ a background goroutine merges same-size-tier segments
//	         (size-tiered, fanout CompactFanout) so segment count stays
//	         O(fanout · log(corpus)); see CompactShard for what that does
//	         and does not bound in write amplification
//	open   → segments are mmapped (footer reads only — postings, text and
//	         term vectors page in lazily), slim rows and out-links stream
//	         out of the meta/link sections and rebuild the in-link index,
//	         and only the WAL tail is replayed
//
// Consistency rules, enforced by lock order docMu → linkMu → redirMu with
// the WAL's internal mutex and segment reader caches as leaves:
//
//   - A writer applies a batch's rows and appends their one WAL record
//     under the locks of the relations it touches. Freeze captures all
//     three relations and swaps in the new WAL generation while holding all
//     three locks, so every record is either fully baked into the frozen
//     segment (and its WAL generation deleted) or fully in the next
//     generation — never split, never lost, never replayed twice.
//   - The segment list and tombstone set live in an immutable tierState
//     swapped only under docMu. Postings visitors hold docMu.RLock across
//     the segment walk and the hot-row walk, and freeze slims the rows and
//     publishes the segment under one docMu hold, so a reader never sees a
//     document's postings twice or not at all — the search tier stays
//     bit-identical across all-memory, all-segment, and mid-compaction
//     states.
//   - Crash recovery: manifest commit (tmp+rename+dir fsync) is the commit
//     point of a freeze or compaction. Segment files not in the manifest
//     and WAL generations older than the manifest's are orphans deleted at
//     open; WAL generations at or after it are replayed in order.

// Tier metrics: segment population and traffic, WAL traffic and fsync
// latency, and recovery counts.
var (
	mSegCount        = metrics.NewGauge("segment_count")
	mSegBytes        = metrics.NewGauge("segment_bytes")
	mSegFreezes      = metrics.NewCounter("segment_freezes_total")
	mSegFrozenDocs   = metrics.NewCounter("segment_frozen_docs_total")
	mCompactRuns     = metrics.NewCounter("segment_compaction_runs_total")
	mCompactBytesIn  = metrics.NewCounter("segment_compaction_bytes_read_total")
	mCompactBytesOut = metrics.NewCounter("segment_compaction_bytes_written_total")
	mCompactCopied   = metrics.NewCounter("segment_compaction_blocks_copied_total")
	mCompactReenc    = metrics.NewCounter("segment_compaction_blocks_reencoded_total")
	mSegReadErrors   = metrics.NewCounter("segment_read_errors_total")
	mWALAppends      = metrics.NewCounter("wal_appends_total")
	mWALBytes        = metrics.NewCounter("wal_bytes_total")
	mWALSyncNanos    = metrics.NewHistogram("wal_fsync_nanos")
	mWALReplays      = metrics.NewCounter("wal_replay_records_total")
	mHotBytes        = metrics.NewGauge("segment_memtable_bytes")
)

// mColdPayloadReads counts reads of a cold document's term vector or body
// out of the segment tier. The query path makes none, so tests use it as the
// oracle that nothing hydrates there.
var mColdPayloadReads = metrics.NewCounter("segment_cold_payload_reads_total")

// TermTF is one sorted term-vector entry, shared with the segment layer.
type TermTF = segment.TermCount

// TierOptions configures a tiered store.
type TierOptions struct {
	// MemtableBudget bounds the bytes of hot document payload (text +
	// term vectors) held in memory across the store; a shard freezes into
	// a segment when it exceeds its share. Default 64 MiB.
	MemtableBudget int64
	// WALSync fsyncs the WAL at every acknowledgement point (workspace
	// flush, per-row insert). Off, durability is only guaranteed for
	// frozen segments.
	WALSync bool
	// CompactFanout is the size-tiered merge fanout (default 4): a size
	// tier holding this many segments is merged into one.
	CompactFanout int
	// DisableCompaction turns the background compactor off (tests drive
	// CompactShard directly).
	DisableCompaction bool
	// FreezeDocs, when positive, also freezes a shard once it holds this
	// many hot documents regardless of bytes (tests use small values).
	FreezeDocs int
}

// WAL record kinds. Kinds 1–3 (one record per relation: documents, links,
// redirects) were written by older releases; a log holding one fails to
// open with errOlderWAL.
const (
	walOpDelete      = 4
	walOpSetTopic    = 5
	walOpSetTraining = 6
	walOpBatch       = 7
)

// errOlderWAL marks a WAL record of a kind only an older release writes.
var errOlderWAL = errors.New("was written by an older release of bingo, which this release cannot replay: re-crawl into a fresh data directory, or keep opening this one with the previous release")

// zeroTimeNanos encodes time.Time{} (whose UnixNano is undefined).
const zeroTimeNanos = math.MinInt64

// tierSeg is one open segment.
type tierSeg struct {
	r     *segment.Reader
	file  string
	bytes int64
}

// tierState is the immutable segment view of one shard: the open segments
// in ascending minSeq order plus the tombstone set (shard-local sequence
// numbers that are present in some segment but logically deleted). It is
// swapped under the shard's docMu; readers load it once and never lock.
type tierState struct {
	segs  []*tierSeg
	tombs map[int64]struct{}
}

var emptyTombs = map[int64]struct{}{}

// coldRef locates a cold document's payload.
type coldRef struct {
	seg *tierSeg
	pos int
}

// coldOverride records meta mutations (SetTopic/SetTraining) applied to a
// cold document after its segment was baked; persisted in the manifest so
// they survive WAL rotation, cleared when a compaction re-bakes the row.
type coldOverride struct {
	Topic       string  `json:"topic,omitempty"`
	Confidence  float64 `json:"conf,omitempty"`
	HasTopic    bool    `json:"hasTopic,omitempty"`
	Training    bool    `json:"training,omitempty"`
	HasTraining bool    `json:"hasTraining,omitempty"`
}

// tierManifest is the per-shard durable state, committed atomically after
// every freeze and compaction.
type tierManifest struct {
	WalSeq    int64                  `json:"walSeq"`
	NextSeq   int64                  `json:"nextSeq"`
	NextSegID int64                  `json:"nextSegID"`
	Segments  []string               `json:"segments"`
	Tombs     []int64                `json:"tombs,omitempty"`
	Overrides map[int64]coldOverride `json:"overrides,omitempty"`
}

// shardTier is one shard's disk state.
type shardTier struct {
	dir   string
	shard int
	opt   *TierOptions

	// mu serializes freeze, compaction, and manifest writes for this
	// shard. Held across segment builds (long), never while a reader is
	// waiting on it for a query.
	mu        sync.Mutex
	nextSegID int64

	// baseWalSeq is the oldest WAL generation that may still hold records
	// not baked into a manifest-committed segment. The manifest records it
	// (not the live walSeq) and only generations below it are ever deleted;
	// it advances — to the generation rotated in — only when a freeze
	// actually bakes the hot tier. walSeq alone can run ahead of durability:
	// after a failed freeze, or at open when several generations survive, the
	// live generation is newer than generations whose acknowledged records
	// exist only in memory and in those older logs. Guarded by mu.
	baseWalSeq int64

	// wal/walSeq are swapped under all three relation locks (rotation);
	// a holder of any one relation lock reads a stable pointer. The hot
	// counters and overrides are guarded by the owner shard's docMu.
	wal       *segment.WAL
	walSeq    int64
	hotBytes  int64
	hotDocs   int64
	overrides map[int64]coldOverride

	// Guarded by the owner shard's linkMu / redirMu: out-link and redirect
	// rows accumulated since the last freeze (the maps hold the merged
	// view; these hold what the next segment must bake). In-links are an
	// index over every shard's out-links, rebuilt at open, never baked.
	hotOut   []Link
	hotRedir []Redirect

	state atomicTierState

	errMu   sync.Mutex
	lastErr error // sticky background/WAL error, surfaced by Flush/Close
}

// atomicTierState is a tiny typed wrapper (avoids atomic.Pointer noise).
type atomicTierState struct {
	p sync.RWMutex
	v *tierState
}

func (a *atomicTierState) load() *tierState {
	a.p.RLock()
	v := a.v
	a.p.RUnlock()
	return v
}
func (a *atomicTierState) store(v *tierState) {
	a.p.Lock()
	a.v = v
	a.p.Unlock()
}

func (t *shardTier) noteErr(err error) {
	if err == nil {
		return
	}
	t.errMu.Lock()
	if t.lastErr == nil {
		t.lastErr = err
	}
	t.errMu.Unlock()
}

func (t *shardTier) takeErr() error {
	t.errMu.Lock()
	err := t.lastErr
	t.lastErr = nil
	t.errMu.Unlock()
	return err
}

func (t *shardTier) segPath(id int64) string {
	return filepath.Join(t.dir, fmt.Sprintf("seg-%06d.bsg", id))
}
func (t *shardTier) walPath(seq int64) string {
	return filepath.Join(t.dir, fmt.Sprintf("wal-%06d.log", seq))
}
func (t *shardTier) manifestPath() string {
	return filepath.Join(t.dir, "MANIFEST.json")
}

// RecoveryStats summarizes what OpenTiered reconstructed.
type RecoveryStats struct {
	Segments    int
	SegmentDocs int
	WALRecords  int
	WALDocs     int
	Elapsed     time.Duration
}

// Open is the one store opener: the tiered store under dir, or an
// in-memory store when dir is empty. p <= 0 means 8 shards for both (a
// reopened directory keeps its pinned count).
func Open(dir string, p int, opt TierOptions) (*Store, error) {
	if dir != "" {
		return OpenTiered(dir, p, opt)
	}
	if p <= 0 {
		p = 8
	}
	return NewSharded(p), nil
}

// OpenTiered opens (or creates) a tiered store rooted at dir with p
// document shards. Existing segments are mmapped and their slim rows
// loaded; WAL tails are replayed; the shard count must match the layout on
// disk (p <= 0 adopts the pinned layout of an existing directory, or the
// default 8 when creating). The returned store behaves exactly like
// NewSharded(p) to every reader, plus durability.
func OpenTiered(dir string, p int, opt TierOptions) (*Store, error) {
	if opt.CompactFanout < 2 {
		opt.CompactFanout = 4
	}
	if opt.MemtableBudget <= 0 {
		opt.MemtableBudget = 64 << 20
	}
	if p <= 0 {
		pinned, ok, err := pinnedShards(dir)
		if err != nil {
			return nil, err
		}
		if ok {
			p = pinned
		} else {
			p = 8
		}
	}
	s := NewSharded(p)
	if err := checkTierLayout(dir, len(s.shards)); err != nil {
		return nil, err
	}
	s.dir = dir
	s.opt = &opt
	start := time.Now()
	stats := RecoveryStats{}
	var orphans []string
	for _, sh := range s.shards {
		t := &shardTier{
			dir:       filepath.Join(dir, fmt.Sprintf("shard-%02d", sh.idx)),
			shard:     sh.idx,
			opt:       &opt,
			overrides: map[int64]coldOverride{},
		}
		t.state.store(&tierState{tombs: emptyTombs})
		if err := os.MkdirAll(t.dir, 0o755); err != nil {
			s.closePartial()
			return nil, fmt.Errorf("store: open tiered: %w", err)
		}
		sh.tier = t
		sh.cold = map[DocID]coldRef{}
		if err := s.openShardTier(sh, &stats, &orphans); err != nil {
			s.closePartial()
			return nil, err
		}
	}
	// Orphans go only once every shard has opened, so a failed open leaves
	// the directory as it found it.
	for _, path := range orphans {
		os.Remove(path)
	}
	stats.Elapsed = time.Since(start)
	s.recovery = stats
	s.durable.Store(int64(s.NumDocs()))
	s.closeCh = make(chan struct{})
	s.compactCh = make(chan struct{}, 1)
	if !opt.DisableCompaction {
		s.compactWG.Add(1)
		go s.compactor()
	}
	return s, nil
}

// Recovery returns what OpenTiered reconstructed (zero for untiered
// stores).
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Tiered reports whether the store has a disk tier.
func (s *Store) Tiered() bool { return s.opt != nil }

// DurableDocs returns the number of documents known durable: fsynced to
// the WAL (when WALSync is on) or baked into a segment.
func (s *Store) DurableDocs() int64 { return s.durable.Load() }

// pinnedShards reads the shard count recorded in dir/TIER.json; ok is
// false when the directory has no pinned layout yet.
func pinnedShards(dir string) (int, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, "TIER.json"))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: open tiered: %w", err)
	}
	var layout struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(b, &layout); err != nil {
		return 0, false, fmt.Errorf("store: open tiered: bad %s: %w", filepath.Join(dir, "TIER.json"), err)
	}
	return layout.Shards, true, nil
}

// checkTierLayout pins the shard count in dir/TIER.json so a data
// directory is never reopened with a different (DocID-incompatible)
// layout.
func checkTierLayout(dir string, p int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: open tiered: %w", err)
	}
	path := filepath.Join(dir, "TIER.json")
	var layout struct {
		Shards int `json:"shards"`
	}
	b, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(b, &layout); err != nil {
			return fmt.Errorf("store: open tiered: bad %s: %w", path, err)
		}
		if layout.Shards != p {
			return fmt.Errorf("store: open tiered: %s was created with %d shards, reopened with %d (DocIDs encode the shard; the layout cannot change)", dir, layout.Shards, p)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("store: open tiered: %w", err)
	}
	layout.Shards = p
	b, _ = json.Marshal(layout)
	return segment.WriteFileAtomic(path, b)
}

// openShardTier loads one shard: manifest → segments (slim rows, cold
// refs, links) → WAL replay → writable WAL. It appends the shard's orphan
// files to orphans for the caller to delete.
func (s *Store) openShardTier(sh *storeShard, stats *RecoveryStats, orphans *[]string) error {
	t := sh.tier
	man := tierManifest{WalSeq: 1, NextSeq: 0, NextSegID: 1}
	if b, err := os.ReadFile(t.manifestPath()); err == nil {
		if err := json.Unmarshal(b, &man); err != nil {
			return fmt.Errorf("store: shard %d: bad manifest: %w", sh.idx, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: shard %d: %w", sh.idx, err)
	}
	t.walSeq = man.WalSeq
	t.baseWalSeq = man.WalSeq
	t.nextSegID = man.NextSegID
	if man.Overrides != nil {
		t.overrides = man.Overrides
	}
	tombs := emptyTombs
	if len(man.Tombs) > 0 {
		tombs = make(map[int64]struct{}, len(man.Tombs))
		for _, seq := range man.Tombs {
			tombs[seq] = struct{}{}
		}
	}

	// Open and ingest manifest segments.
	inManifest := map[string]bool{}
	segs := make([]*tierSeg, 0, len(man.Segments))
	for _, file := range man.Segments {
		inManifest[file] = true
		path := filepath.Join(t.dir, file)
		r, err := segment.Open(path)
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", sh.idx, err)
		}
		if r.Shard() != sh.idx {
			r.Close()
			return fmt.Errorf("store: shard %d: segment %s belongs to shard %d", sh.idx, file, r.Shard())
		}
		seg := &tierSeg{r: r, file: file, bytes: r.Bytes()}
		segs = append(segs, seg)
		if err := s.ingestSegment(sh, seg, tombs); err != nil {
			r.Close()
			return err
		}
		stats.Segments++
		stats.SegmentDocs += r.DocCount()
		mSegCount.Add(1)
		mSegBytes.Add(seg.bytes)
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].r.MinSeq() < segs[b].r.MinSeq() })
	t.state.store(&tierState{segs: segs, tombs: tombs})
	sh.nextSeq = man.NextSeq

	// Orphans: segment files the manifest doesn't list (a freeze or
	// compaction that died before committing) and WAL generations older
	// than the manifest's (a freeze that committed but died before
	// deleting).
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return fmt.Errorf("store: shard %d: %w", sh.idx, err)
	}
	var walSeqs []int64
	for _, en := range entries {
		name := en.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".bsg"):
			if !inManifest[name] {
				*orphans = append(*orphans, filepath.Join(t.dir, name))
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".tmp"):
			*orphans = append(*orphans, filepath.Join(t.dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			seq, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
			if perr != nil {
				continue
			}
			if seq < man.WalSeq {
				*orphans = append(*orphans, filepath.Join(t.dir, name))
			} else {
				walSeqs = append(walSeqs, seq)
			}
		}
	}
	sort.Slice(walSeqs, func(a, b int) bool { return walSeqs[a] < walSeqs[b] })

	// Replay surviving WAL generations in order. Only a torn tail is
	// forgiven; corruption inside the log is a hard open error.
	var lastGood int64
	var buf []byte
	for _, seq := range walSeqs {
		path := t.walPath(seq)
		n, good, err := segment.ReplayWAL(path, func(payload []byte) error {
			return s.applyWALRecord(sh, payload, &buf, stats)
		})
		if errors.Is(err, errOlderWAL) {
			return fmt.Errorf("store: shard %d: %s: %w", sh.idx, path, err)
		}
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", sh.idx, err)
		}
		stats.WALRecords += n
		mWALReplays.Add(int64(n))
		lastGood = good
	}
	if len(walSeqs) > 0 {
		last := walSeqs[len(walSeqs)-1]
		w, err := segment.OpenWALForAppend(t.walPath(last), lastGood)
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", sh.idx, err)
		}
		t.wal = w
		t.walSeq = last
	} else {
		w, err := segment.CreateWAL(t.walPath(t.walSeq))
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", sh.idx, err)
		}
		t.wal = w
	}
	sh.bumpEpoch()
	return nil
}

// ingestSegment creates one segment's slim in-memory rows, cold refs, link
// rows and redirect rows, and adds each out-link row to its target shard's
// in-link index. Called during open, before the store is shared: no locks.
func (s *Store) ingestSegment(sh *storeShard, seg *tierSeg, tombs map[int64]struct{}) error {
	t := sh.tier
	err := seg.r.VisitMeta(func(pos int, seq int64, m segment.Meta) bool {
		if _, dead := tombs[seq]; dead {
			return true
		}
		d := docFromMeta(&m)
		if ov, ok := t.overrides[seq]; ok {
			if ov.HasTopic {
				d.Topic = ov.Topic
				d.Confidence = ov.Confidence
			}
			if ov.HasTraining {
				d.IsTraining = ov.Training
			}
		}
		id := sh.idFor(seq)
		d.ID = id
		sh.docs[id] = &d
		sh.byURL[d.key()] = id
		if d.Topic != "" {
			sh.byTopic[d.Topic] = append(sh.byTopic[d.Topic], id)
		}
		sh.cold[id] = coldRef{seg: seg, pos: pos}
		mDocs.Add(1)
		sh.docsGauge.Add(1)
		return true
	})
	if err != nil {
		return fmt.Errorf("store: shard %d: %w", sh.idx, err)
	}
	err = seg.r.VisitLinks(func(l segment.LinkRow) bool {
		s.replayOutLink(sh, Link{From: l.From, To: l.To, Anchor: l.Anchor})
		return true
	})
	if err != nil {
		return fmt.Errorf("store: shard %d: %w", sh.idx, err)
	}
	err = seg.r.VisitRedirects(func(rd segment.RedirectRow) bool {
		sh.redirects = append(sh.redirects, Redirect{From: rd.From, To: rd.To})
		return true
	})
	if err != nil {
		return fmt.Errorf("store: shard %d: %w", sh.idx, err)
	}
	return nil
}

// metaFromDoc converts a row to its segment form. The caller owns d. The
// meta URL field carries the document's docKey — tenant-prefixed for named
// tenants, the bare URL for the default tenant — so tenancy rides in the
// existing segment and WAL formats without a version bump; docFromMeta
// splits it back apart.
func metaFromDoc(d *Document) segment.Meta {
	nanos := int64(zeroTimeNanos)
	if !d.CrawledAt.IsZero() {
		nanos = d.CrawledAt.UnixNano()
	}
	return segment.Meta{
		URL: d.key(), FinalURL: d.FinalURL, Title: d.Title,
		ContentType: d.ContentType, Topic: d.Topic, Confidence: d.Confidence,
		Depth: d.Depth, CrawledAtNanos: nanos, IsTraining: d.IsTraining,
	}
}

func docFromMeta(m *segment.Meta) Document {
	tenant, url := splitDocKey(m.URL)
	d := Document{
		Tenant: tenant, URL: url, FinalURL: m.FinalURL, Title: m.Title,
		ContentType: m.ContentType, Topic: m.Topic, Confidence: m.Confidence,
		Depth: m.Depth, IsTraining: m.IsTraining,
	}
	if m.CrawledAtNanos != zeroTimeNanos {
		d.CrawledAt = time.Unix(0, m.CrawledAtNanos)
	}
	return d
}

// sortedTerms filters tf>0 and sorts by term — the exact transformation
// the search snapshot applies to a hot document's map, which is what keeps
// segment term vectors bit-identical inputs to the scoring pipeline.
func sortedTerms(m map[string]int) []TermTF {
	out := make([]TermTF, 0, len(m))
	for t, tf := range m {
		if tf > 0 {
			out = append(out, TermTF{Term: t, TF: tf})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Term < out[b].Term })
	return out
}

func termsMap(vec []TermTF) map[string]int {
	m := make(map[string]int, len(vec))
	for _, tc := range vec {
		m[tc.Term] = tc.TF
	}
	return m
}

// docBytesRaw estimates the memory a document's evictable payload holds.
func docBytesRaw(text string, terms map[string]int) int64 {
	n := int64(len(text))
	for t := range terms {
		n += int64(len(t)) + 16
	}
	return n
}

func docBytes(d *Document) int64 { return docBytesRaw(d.Text, d.Terms) }

// addHotLocked adjusts the shard's hot-tier accounting. Caller holds the
// shard's docMu exclusively.
func (t *shardTier) addHotLocked(bytes, docs int64) {
	t.hotBytes += bytes
	t.hotDocs += docs
	mHotBytes.Add(bytes)
}

// noteColdTopicLocked records a topic override for a cold document so the
// mutation survives the next WAL rotation (the segment's baked meta is
// stale until a compaction re-bakes it). Caller holds docMu exclusively.
func (sh *storeShard) noteColdTopicLocked(id DocID, topic string, conf float64) {
	t := sh.tier
	if t == nil {
		return
	}
	if _, cold := sh.cold[id]; !cold {
		return
	}
	seq := int64(id) >> sh.bits
	ov := t.overrides[seq]
	ov.HasTopic = true
	ov.Topic = topic
	ov.Confidence = conf
	t.overrides[seq] = ov
}

// noteColdTrainingLocked is noteColdTopicLocked for the training flag.
func (sh *storeShard) noteColdTrainingLocked(id DocID, training bool) {
	t := sh.tier
	if t == nil {
		return
	}
	if _, cold := sh.cold[id]; !cold {
		return
	}
	seq := int64(id) >> sh.bits
	ov := t.overrides[seq]
	ov.HasTraining = true
	ov.Training = training
	t.overrides[seq] = ov
}

// ---------------------------------------------------------------------------
// WAL record encode / apply

// appendWALLocked frames and appends a record to the shard's current WAL.
// The caller holds the relation lock that makes the (apply, append) pair
// atomic with respect to freeze's rotation point. Returns the WAL the
// record landed in so the caller can fsync it after releasing locks.
func (t *shardTier) appendWALLocked(payload []byte) (*segment.WAL, error) {
	w := t.wal
	if w == nil {
		err := fmt.Errorf("store: shard %d: write after Close", t.shard)
		t.noteErr(err)
		return nil, err
	}
	if err := w.Append(payload, false); err != nil {
		t.noteErr(err)
		return w, err
	}
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(payload)))
	return w, nil
}

// applyWALRecord replays one record during open. A batch record's body is
// inflated into *buf, which is reused across records.
func (s *Store) applyWALRecord(sh *storeShard, payload []byte, buf *[]byte, stats *RecoveryStats) error {
	context := fmt.Sprintf("shard %d wal", sh.idx)
	d := segment.NewDecoder(payload, context)
	switch op := d.Byte(); op {
	case walOpBatch:
		firstSeq := d.Uvarint()
		rawLen := d.Uvarint()
		comp := d.Rest()
		if err := d.Err(); err != nil {
			return err
		}
		body, err := segment.Inflate(*buf, comp, rawLen, context)
		if err != nil {
			return err
		}
		*buf = body
		return s.applyBatch(sh, firstSeq, body, stats)
	case walOpDelete:
		// Mutation records address rows by docKey (the bare URL in logs
		// written before tenancy, which is the default tenant's key).
		key := d.Str()
		if err := d.Err(); err != nil {
			return err
		}
		if id, ok := sh.byURL[key]; ok {
			sh.removeDocLocked(id)
		}
	case walOpSetTopic:
		key := d.Str()
		topic := d.Str()
		conf := d.F64()
		if err := d.Err(); err != nil {
			return err
		}
		if id, ok := sh.byURL[key]; ok {
			sh.setTopicLocked(id, topic, conf)
		}
	case walOpSetTraining:
		key := d.Str()
		training := d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if id, ok := sh.byURL[key]; ok {
			sh.docs[id].IsTraining = training
			sh.noteColdTrainingLocked(id, training)
		}
	case 1, 2, 3:
		return fmt.Errorf("record kind %d %w", op, errOlderWAL)
	default:
		return fmt.Errorf("store: shard %d wal: unknown record kind %d: %w", sh.idx, op, segment.ErrCorrupt)
	}
	return d.Err()
}

// applyBatch replays a batch record's inflated body (encodeBatchBody): its
// documents take the seqs firstSeq, firstSeq+1, … in order.
func (s *Store) applyBatch(sh *storeShard, firstSeq uint64, body []byte, stats *RecoveryStats) error {
	d := segment.NewDecoder(body, fmt.Sprintf("shard %d wal batch", sh.idx))
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("store: shard %d wal batch: %s: %w", sh.idx, fmt.Sprintf(format, args...), segment.ErrCorrupt)
	}
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		return corrupt("%d documents overrun the record", n)
	}
	if n > 0 && (firstSeq == 0 || firstSeq > uint64(math.MaxInt64>>sh.bits)-n) {
		return corrupt("first seq %d out of range", firstSeq)
	}
	for i := uint64(0); i < n; i++ {
		m := d.MetaFields()
		nt := d.Uvarint()
		if nt > uint64(d.Remaining()/2) { // each term is ≥2 bytes
			return corrupt("%d terms overrun the record", nt)
		}
		terms := make(map[string]int, nt)
		for j := uint64(0); j < nt; j++ {
			t := d.Str()
			terms[t] = int(d.Varint())
		}
		text := d.Str()
		if err := d.Err(); err != nil {
			return err
		}
		doc := docFromMeta(&m)
		doc.Terms = terms
		doc.Text = text
		s.replayInsert(sh, int64(firstSeq+i), doc)
		if stats != nil {
			stats.WALDocs++
		}
	}
	for runs := d.Uvarint(); runs > 0 && d.Err() == nil; runs-- {
		from := d.Str()
		for k := d.Uvarint(); k > 0; k-- {
			l := Link{From: from, To: d.Str(), Anchor: d.Str()}
			if err := d.Err(); err != nil {
				return err
			}
			s.replayOutLink(sh, l)
			sh.tier.hotOut = append(sh.tier.hotOut, l)
		}
	}
	for k := d.Uvarint(); k > 0 && d.Err() == nil; k-- {
		r := Redirect{From: d.Str(), To: d.Str()}
		if err := d.Err(); err != nil {
			return err
		}
		sh.redirects = append(sh.redirects, r)
		sh.tier.hotRedir = append(sh.tier.hotRedir, r)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return corrupt("%d trailing bytes", d.Remaining())
	}
	return nil
}

// replayOutLink adds an out-link row read back from a segment or WAL of sh
// to sh's out-link table and to its target shard's in-link index. Open
// runs single-threaded, so no locks.
func (s *Store) replayOutLink(sh *storeShard, l Link) {
	sh.outLinks[l.From] = append(sh.outLinks[l.From], l)
	to := s.shardForURL(l.To)
	to.inLinks[l.To] = append(to.inLinks[l.To], l)
}

// replayInsert applies a WAL doc insert with its original sequence number.
// Open runs single-threaded, so no locks.
func (s *Store) replayInsert(sh *storeShard, seq int64, d Document) {
	key := d.key()
	if oldID, ok := sh.byURL[key]; ok {
		sh.removeDocLocked(oldID)
	}
	id := sh.idFor(seq)
	d.ID = id
	cp := d
	sh.docs[id] = &cp
	sh.byURL[key] = id
	if d.Topic != "" {
		sh.byTopic[d.Topic] = append(sh.byTopic[d.Topic], id)
	}
	if seq > sh.nextSeq {
		sh.nextSeq = seq
	}
	sh.tier.addHotLocked(docBytes(&cp), 1)
	mDocs.Add(1)
	sh.docsGauge.Add(1)
}

// ---------------------------------------------------------------------------
// Freeze: hot tier → segment

// maybeFreeze freezes sh if its hot payload exceeds the shard's share of
// the memtable budget (or the FreezeDocs test knob). Called without locks.
func (s *Store) maybeFreeze(sh *storeShard) {
	t := sh.tier
	if t == nil {
		return
	}
	sh.docMu.RLock()
	over := s.overBudgetLocked(t)
	sh.docMu.RUnlock()
	if over {
		if err := s.freezeShard(sh.idx, true); err != nil {
			t.noteErr(err)
		}
	}
}

// overBudgetLocked reports whether t's hot tier should freeze. Caller holds
// the shard's docMu.
func (s *Store) overBudgetLocked(t *shardTier) bool {
	return t.hotBytes >= t.opt.MemtableBudget/int64(len(s.shards)) ||
		(t.opt.FreezeDocs > 0 && t.hotDocs >= int64(t.opt.FreezeDocs))
}

// freezePrePublishHook, when non-nil, runs between a freeze's segment
// build and publishFreeze — the window where a meta mutation can land
// after the frozen meta was captured. Tests use it to pin that race
// deterministically; production never sets it.
var freezePrePublishHook func()

// frozenDoc is one captured hot document.
type frozenDoc struct {
	id    DocID
	seq   int64
	meta  segment.Meta
	terms map[string]int // immutable after insert; safe to read unlocked
	text  string
}

// FreezeShard freezes shard i's hot documents, links and redirects into a
// new immutable segment (which carries their term vectors and postings),
// slims the rows, rotates the WAL and commits the manifest. It is a no-op
// when the shard has nothing hot. Exported for tests and benchmarks; the
// write path calls it automatically via the memtable budget.
func (s *Store) FreezeShard(i int) error { return s.freezeShard(i, false) }

// freezeShard is FreezeShard. When auto, it first re-checks the memtable
// budget under t.mu: a flusher that found the shard over budget while
// another freeze was building waited here for that freeze, which has since
// drained the hot tier it saw.
func (s *Store) freezeShard(i int, auto bool) error {
	sh := s.shards[i]
	t := sh.tier
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Capture + rotate under all three relation locks: the atomic cut
	// between "baked into this segment" and "in the next WAL generation".
	sh.docMu.Lock()
	if auto && !s.overBudgetLocked(t) {
		sh.docMu.Unlock()
		return nil
	}
	sh.linkMu.Lock()
	sh.redirMu.Lock()
	var frozen []frozenDoc
	for id, d := range sh.docs {
		if _, cold := sh.cold[id]; cold {
			continue
		}
		frozen = append(frozen, frozenDoc{
			id: id, seq: int64(id) >> sh.bits,
			meta: metaFromDoc(d), terms: d.Terms, text: d.Text,
		})
	}
	hotOut, hotRedir := t.hotOut, t.hotRedir
	if len(frozen) == 0 && len(hotOut) == 0 && len(hotRedir) == 0 {
		sh.redirMu.Unlock()
		sh.linkMu.Unlock()
		sh.docMu.Unlock()
		return nil
	}
	t.hotOut, t.hotRedir = nil, nil
	newWAL, err := segment.CreateWAL(t.walPath(t.walSeq + 1))
	if err != nil {
		t.hotOut, t.hotRedir = hotOut, hotRedir
		sh.redirMu.Unlock()
		sh.linkMu.Unlock()
		sh.docMu.Unlock()
		return err
	}
	oldWAL := t.wal
	t.wal = newWAL
	t.walSeq++
	newGen := t.walSeq
	segID := t.nextSegID
	t.nextSegID++
	sh.redirMu.Unlock()
	sh.linkMu.Unlock()
	sh.docMu.Unlock()
	oldWAL.Close()

	// Build the segment outside all locks (compression is the long pole).
	sort.Slice(frozen, func(a, b int) bool { return frozen[a].seq < frozen[b].seq })
	in := segment.BuildInput{Shard: sh.idx}
	in.Docs = make([]segment.DocRecord, len(frozen))
	for j := range frozen {
		in.Docs[j] = segment.DocRecord{
			Seq: frozen[j].seq, Meta: frozen[j].meta,
			Terms: sortedTerms(frozen[j].terms), Text: frozen[j].text,
		}
	}
	in.OutLinks = linkRows(hotOut)
	in.Redirects = redirectRows(hotRedir)
	file := fmt.Sprintf("seg-%06d.bsg", segID)
	bytes, err := segment.Build(filepath.Join(t.dir, file), in)
	var r *segment.Reader
	if err == nil {
		r, err = segment.Open(filepath.Join(t.dir, file))
	}
	if err != nil {
		// The new WAL generation is already live and every older one is
		// still on disk (baseWalSeq did not advance, so no later manifest
		// commit may delete them), so no acknowledged write is lost — only
		// the hot link capture must be restored. The next freeze recaptures
		// the still-hot documents.
		sh.linkMu.Lock()
		t.hotOut = append(hotOut, t.hotOut...)
		sh.linkMu.Unlock()
		sh.redirMu.Lock()
		t.hotRedir = append(hotRedir, t.hotRedir...)
		sh.redirMu.Unlock()
		return err
	}
	if freezePrePublishHook != nil {
		freezePrePublishHook()
	}
	s.publishFreeze(sh, &tierSeg{r: r, file: file, bytes: bytes}, frozen)
	mSegFreezes.Inc()
	mSegFrozenDocs.Add(int64(len(frozen)))
	mSegCount.Add(1)
	mSegBytes.Add(bytes)
	if !t.opt.WALSync {
		s.durable.Add(int64(len(frozen)))
	}
	// Everything acknowledged before the rotation point is now baked into
	// the published segment (or tombstoned/overridden), so generations
	// before newGen become redundant once the manifest commits.
	t.baseWalSeq = newGen
	if err := s.commitManifestLocked(sh); err != nil {
		// The segment is live in memory and on disk; the manifest retries
		// at the next freeze or compaction commit, and until one succeeds
		// the old on-disk manifest plus surviving WAL generations still
		// reconstruct everything. Restoring the link capture here would
		// double-bake it — the rows are already in the published segment.
		return err
	}
	s.kickCompactor()
	return nil
}

// publishFreeze swaps the new segment in under one docMu hold: slim the
// frozen rows, record cold refs, and publish the segment+tombstones —
// atomically with respect to every reader holding docMu.RLock.
func (s *Store) publishFreeze(sh *storeShard, seg *tierSeg, frozen []frozenDoc) {
	t := sh.tier
	sh.docMu.Lock()
	defer sh.docMu.Unlock()
	st := t.state.load()
	tombs := st.tombs
	var newTombs map[int64]struct{}
	for pos := range frozen {
		f := &frozen[pos]
		d, ok := sh.docs[f.id]
		if ok && sh.byURL[d.key()] == f.id {
			// SetTopic/SetTraining applied between capture and here missed
			// noteColdTopicLocked (the row was not cold yet) and the baked
			// meta predates them; their WAL records live in the generation
			// the next freeze deletes. An override is the only durable home.
			if d.Topic != f.meta.Topic || d.Confidence != f.meta.Confidence {
				ov := t.overrides[f.seq]
				ov.HasTopic, ov.Topic, ov.Confidence = true, d.Topic, d.Confidence
				t.overrides[f.seq] = ov
			}
			if d.IsTraining != f.meta.IsTraining {
				ov := t.overrides[f.seq]
				ov.HasTraining, ov.Training = true, d.IsTraining
				t.overrides[f.seq] = ov
			}
			d.Text = ""
			d.Terms = nil
			sh.cold[f.id] = coldRef{seg: seg, pos: pos}
			// Docs that died mid-build were already uncounted by
			// removeDocLocked; only the rows slimmed here leave the hot
			// tier now.
			t.addHotLocked(-docBytesRaw(f.text, f.terms), -1)
		} else {
			// Deleted or replaced while the segment was building: the
			// baked row is dead on arrival.
			if newTombs == nil {
				newTombs = copyTombs(tombs)
			}
			newTombs[f.seq] = struct{}{}
		}
	}
	if newTombs == nil {
		newTombs = tombs
	}
	segs := make([]*tierSeg, 0, len(st.segs)+1)
	segs = append(segs, st.segs...)
	segs = append(segs, seg)
	sort.Slice(segs, func(a, b int) bool { return segs[a].r.MinSeq() < segs[b].r.MinSeq() })
	t.state.store(&tierState{segs: segs, tombs: newTombs})
}

func copyTombs(tombs map[int64]struct{}) map[int64]struct{} {
	cp := make(map[int64]struct{}, len(tombs)+1)
	for seq := range tombs {
		cp[seq] = struct{}{}
	}
	return cp
}

func linkRows(ls []Link) []segment.LinkRow {
	out := make([]segment.LinkRow, len(ls))
	for i, l := range ls {
		out[i] = segment.LinkRow{From: l.From, To: l.To, Anchor: l.Anchor}
	}
	return out
}

func redirectRows(rs []Redirect) []segment.RedirectRow {
	out := make([]segment.RedirectRow, len(rs))
	for i, r := range rs {
		out[i] = segment.RedirectRow{From: r.From, To: r.To}
	}
	return out
}

// commitManifestLocked writes the shard manifest (the durability commit
// point of a freeze or compaction) and deletes WAL generations it
// obsoletes. The manifest records baseWalSeq — the oldest generation that
// may hold unbaked records — never the live walSeq, which runs ahead of it
// after a failed freeze or a multi-generation recovery; deleting up to the
// live generation there would drop acknowledged documents that exist only
// in memory and in those older logs. Caller holds t.mu.
func (s *Store) commitManifestLocked(sh *storeShard) error {
	t := sh.tier
	sh.docMu.RLock()
	st := t.state.load()
	man := tierManifest{
		WalSeq:    t.baseWalSeq,
		NextSeq:   sh.nextSeq,
		NextSegID: t.nextSegID,
		Segments:  make([]string, len(st.segs)),
		Tombs:     make([]int64, 0, len(st.tombs)),
	}
	for i, seg := range st.segs {
		man.Segments[i] = seg.file
	}
	for seq := range st.tombs {
		man.Tombs = append(man.Tombs, seq)
	}
	if len(t.overrides) > 0 {
		man.Overrides = make(map[int64]coldOverride, len(t.overrides))
		for seq, ov := range t.overrides {
			man.Overrides[seq] = ov
		}
	}
	sh.docMu.RUnlock()
	sort.Slice(man.Tombs, func(a, b int) bool { return man.Tombs[a] < man.Tombs[b] })
	b, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("store: shard %d: manifest: %w", sh.idx, err)
	}
	if err := segment.WriteFileAtomic(t.manifestPath(), b); err != nil {
		return err
	}
	// Old WAL generations are now redundant.
	entries, err := os.ReadDir(t.dir)
	if err == nil {
		for _, en := range entries {
			name := en.Name()
			if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
				seq, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
				if perr == nil && seq < man.WalSeq {
					os.Remove(filepath.Join(t.dir, name))
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Compaction: size-tiered background merging

// kickCompactor nudges the background compactor (non-blocking).
func (s *Store) kickCompactor() {
	if s.compactCh == nil {
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

func (s *Store) compactor() {
	defer s.compactWG.Done()
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.compactCh:
		case <-ticker.C:
		}
		for _, sh := range s.shards {
			select {
			case <-s.closeCh:
				return
			default:
			}
			for {
				did, err := s.CompactShard(sh.idx)
				if err != nil {
					sh.tier.noteErr(err)
					break
				}
				if !did {
					break
				}
			}
		}
	}
}

// compactionTier buckets a segment size into a size tier: tier k holds
// segments in [minSegBytes·fanout^k, minSegBytes·fanout^(k+1)).
const minSegBytes = 256 << 10

func compactionTier(bytes int64, fanout int) int {
	tier := 0
	for bytes >= minSegBytes*int64(fanout) {
		bytes /= int64(fanout)
		tier++
	}
	return tier
}

// CompactShard merges a run of at least CompactFanout seq-adjacent
// segments of one size tier of shard i — the lowest tier that has such a
// run, and the whole run — returning whether a merge ran. Merging only
// adjacent segments keeps the segments' seq ranges disjoint. Above tier 0
// a merge's output lands in a higher tier, so a byte is rewritten about
// once per tier it passes through. Tier 0 spans [0, minSegBytes·fanout)
// and is not bounded that way: a merge of small segments can stay in tier
// 0 and be merged again with the next ones, so small stores rewrite a byte
// several times inside it.
func (s *Store) CompactShard(i int) (bool, error) {
	sh := s.shards[i]
	t := sh.tier
	if t == nil {
		return false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	segs := t.state.load().segs
	fanout := t.opt.CompactFanout
	var inputs []*tierSeg
	bestTier := -1
	for lo := 0; lo < len(segs); {
		k := compactionTier(segs[lo].bytes, fanout)
		hi := lo + 1
		for hi < len(segs) && compactionTier(segs[hi].bytes, fanout) == k {
			hi++
		}
		if hi-lo >= fanout && (bestTier == -1 || k < bestTier) {
			bestTier, inputs = k, segs[lo:hi]
		}
		lo = hi
	}
	if inputs == nil {
		return false, nil
	}
	if err := s.mergeSegments(sh, inputs); err != nil {
		return false, err
	}
	mCompactRuns.Inc()
	return true, nil
}

// mergeSegments merges inputs — seq-adjacent segments, in seq order — into
// one segment with segment.Merge, dropping deleted rows and re-baking each
// surviving row's current metadata (clearing its override), then swaps it
// in. Caller holds t.mu.
func (s *Store) mergeSegments(sh *storeShard, inputs []*tierSeg) error {
	t := sh.tier
	inputSet := map[*tierSeg]bool{}
	readers := make([]*segment.Reader, len(inputs))
	var bytesIn int64
	for i, seg := range inputs {
		inputSet[seg] = true
		readers[i] = seg.r
		bytesIn += seg.bytes
	}

	// Merge asks about every input row once. A row the shard no longer
	// holds was deleted, and its tombstone goes with it; one deleted after
	// it was asked about survives into the output and stays tombstoned (the
	// swap keeps every tomb it didn't drop). A surviving row is baked with
	// the shard's current metadata for it — the in-memory slim row is
	// authoritative — so its override can be dropped.
	var dropped []int64
	baked := map[int64]segment.Meta{} // rows that had an override, as baked
	live := func(seq int64) (segment.Meta, bool) {
		sh.docMu.RLock()
		defer sh.docMu.RUnlock()
		d, ok := sh.docs[sh.idFor(seq)]
		if !ok {
			dropped = append(dropped, seq)
			return segment.Meta{}, false
		}
		m := metaFromDoc(d)
		if _, has := t.overrides[seq]; has {
			baked[seq] = m
		}
		return m, true
	}
	segID := t.nextSegID
	t.nextSegID++
	file := fmt.Sprintf("seg-%06d.bsg", segID)
	res, err := segment.Merge(filepath.Join(t.dir, file), readers, live)
	if err != nil {
		return fmt.Errorf("store: shard %d: compact: %w", sh.idx, err)
	}
	r, err := segment.Open(filepath.Join(t.dir, file))
	if err != nil {
		os.Remove(filepath.Join(t.dir, file))
		return err
	}
	merged := &tierSeg{r: r, file: file, bytes: res.Bytes}

	// Swap under docMu: replace inputs with the merged segment, repoint
	// cold refs, drop tombs for rows we actually dropped, and drop
	// overrides for rows whose re-baked meta still matches the live row.
	sh.docMu.Lock()
	st := t.state.load()
	segs := make([]*tierSeg, 0, len(st.segs))
	for _, seg := range st.segs {
		if !inputSet[seg] {
			segs = append(segs, seg)
		}
	}
	segs = append(segs, merged)
	sort.Slice(segs, func(a, b int) bool { return segs[a].r.MinSeq() < segs[b].r.MinSeq() })
	tombs := copyTombs(st.tombs)
	for _, seq := range dropped {
		delete(tombs, seq)
	}
	if len(tombs) == 0 {
		tombs = emptyTombs
	}
	for pos, seq := range res.Seqs {
		id := sh.idFor(seq)
		if _, cold := sh.cold[id]; cold {
			sh.cold[id] = coldRef{seg: merged, pos: pos}
		}
	}
	for seq, m := range baked {
		// The override is redundant iff the live row still matches what
		// was just baked (a SetTopic racing the merge re-creates it).
		ov, has := t.overrides[seq]
		if !has {
			continue
		}
		d, live := sh.docs[sh.idFor(seq)]
		stale := !live ||
			(ov.HasTopic && (d.Topic != m.Topic || d.Confidence != m.Confidence)) ||
			(ov.HasTraining && d.IsTraining != m.IsTraining)
		if !stale {
			delete(t.overrides, seq)
		}
	}
	t.state.store(&tierState{segs: segs, tombs: tombs})
	sh.docMu.Unlock()

	if err := s.commitManifestLocked(sh); err != nil {
		return err
	}
	// No reader can reach the inputs anymore: every access path loads the
	// tierState under docMu.RLock and copies what it returns.
	for _, seg := range inputs {
		seg.r.Close()
		os.Remove(filepath.Join(t.dir, seg.file))
		mSegBytes.Add(-seg.bytes)
		mSegCount.Add(-1)
	}
	mSegCount.Add(1)
	mSegBytes.Add(res.Bytes)
	mCompactBytesIn.Add(bytesIn)
	mCompactBytesOut.Add(res.Bytes)
	mCompactCopied.Add(int64(res.Copied))
	mCompactReenc.Add(int64(res.Reencoded))
	return nil
}

// ---------------------------------------------------------------------------
// Cold reads

// hydrateLocked fills a copy of row d with its cold payload. Caller holds
// sh.docMu (read or write).
func (sh *storeShard) hydrateLocked(d *Document) Document {
	cp := *d
	ref, ok := sh.cold[d.ID]
	if !ok {
		return cp
	}
	mColdPayloadReads.Inc()
	vec, err := ref.seg.r.TermVec(ref.pos)
	if err != nil {
		mSegReadErrors.Inc()
		sh.tier.noteErr(err)
		return cp
	}
	text, err := ref.seg.r.Text(ref.pos)
	if err != nil {
		mSegReadErrors.Inc()
		sh.tier.noteErr(err)
		return cp
	}
	cp.Terms = termsMap(vec)
	cp.Text = text
	return cp
}

// ColdDocTerms returns a cold document's sorted term vector (reusing buf),
// or ok=false if the document is hot (its Terms map is authoritative) or
// absent. The snapshot builder calls this seq-ascending, which rides the
// reader's block cache.
func (s *Store) ColdDocTerms(id DocID, buf []TermTF) ([]TermTF, bool) {
	sh := s.shardOf(id)
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	ref, ok := sh.cold[id]
	if !ok {
		return nil, false
	}
	mColdPayloadReads.Inc()
	vec, err := ref.seg.r.TermVecInto(ref.pos, buf)
	if err != nil {
		mSegReadErrors.Inc()
		sh.tier.noteErr(err)
		return nil, false
	}
	return vec, true
}

// DocText returns a document's body text, reading through to the segment
// tier for cold documents.
func (s *Store) DocText(id DocID) (string, bool) {
	sh := s.shardOf(id)
	sh.docMu.RLock()
	defer sh.docMu.RUnlock()
	d, ok := sh.docs[id]
	if !ok {
		return "", false
	}
	if ref, cold := sh.cold[id]; cold {
		mColdPayloadReads.Inc()
		text, err := ref.seg.r.Text(ref.pos)
		if err != nil {
			mSegReadErrors.Inc()
			sh.tier.noteErr(err)
			return "", false
		}
		return text, true
	}
	return d.Text, true
}

// visitTierPostings streams term's segment-resident postings for one
// shard, tombstone-filtered, converting sequence numbers to DocIDs; an
// untiered shard has none. Caller holds sh.docMu.RLock.
func (sh *storeShard) visitTierPostings(term string, fn func(doc DocID, tf int)) {
	if sh.tier == nil {
		return
	}
	st := sh.tier.state.load()
	for _, seg := range st.segs {
		err := seg.r.VisitPostings(term, func(seq int64, tf int) {
			if _, dead := st.tombs[seq]; dead {
				return
			}
			fn(sh.idFor(seq), tf)
		})
		if err != nil {
			mSegReadErrors.Inc()
			sh.tier.noteErr(err)
		}
	}
}

// tierDocFreq counts term's live segment-resident documents in one shard
// (0 for an untiered shard). Caller holds sh.docMu.RLock.
func (sh *storeShard) tierDocFreq(term string) int {
	if sh.tier == nil {
		return 0
	}
	n := 0
	st := sh.tier.state.load()
	for _, seg := range st.segs {
		if len(st.tombs) == 0 {
			df, err := seg.r.DocFreq(term)
			if err != nil {
				mSegReadErrors.Inc()
				sh.tier.noteErr(err)
				continue
			}
			n += df
			continue
		}
		err := seg.r.VisitPostings(term, func(seq int64, tf int) {
			if _, dead := st.tombs[seq]; !dead {
				n++
			}
		})
		if err != nil {
			mSegReadErrors.Inc()
			sh.tier.noteErr(err)
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Close

// closePartial tears down whatever OpenTiered had built when it fails
// midway.
func (s *Store) closePartial() {
	for _, sh := range s.shards {
		if sh.tier == nil {
			continue
		}
		if sh.tier.wal != nil {
			sh.tier.wal.Close()
		}
		for _, seg := range sh.tier.state.load().segs {
			seg.r.Close()
		}
	}
}

// Close stops the compactor, fsyncs and closes the WALs, and unmaps every
// segment. A tiered store must be closed before its directory is reopened.
// Close on an untiered store is a no-op.
func (s *Store) Close() error {
	if s.opt == nil {
		return nil
	}
	if s.closeCh != nil {
		select {
		case <-s.closeCh:
		default:
			close(s.closeCh)
		}
		s.compactWG.Wait()
	}
	var firstErr error
	for _, sh := range s.shards {
		t := sh.tier
		if t == nil {
			continue
		}
		t.mu.Lock()
		sh.docMu.Lock()
		// The wal pointer is read under any one relation lock, so swapping
		// it to nil needs all three (docMu → linkMu → redirMu), exactly
		// like FreezeShard's rotation.
		sh.linkMu.Lock()
		sh.redirMu.Lock()
		if t.wal != nil {
			if err := t.wal.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			t.wal = nil
		}
		sh.redirMu.Unlock()
		sh.linkMu.Unlock()
		for _, seg := range t.state.load().segs {
			if err := seg.r.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t.state.store(&tierState{tombs: emptyTombs})
		sh.docMu.Unlock()
		t.mu.Unlock()
		if err := t.takeErr(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// noteTierErr records a tier error not attributable to one shard.
func (s *Store) noteTierErr(err error) {
	for _, sh := range s.shards {
		if sh.tier != nil {
			sh.tier.noteErr(err)
			return
		}
	}
}

// TierErr surfaces (and clears) the first background tier error — a WAL
// append failure or segment read error noted on a path that could not
// return it.
func (s *Store) TierErr() error {
	for _, sh := range s.shards {
		if sh.tier == nil {
			continue
		}
		if err := sh.tier.takeErr(); err != nil {
			return err
		}
	}
	return nil
}
