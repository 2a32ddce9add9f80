package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bingo-search/bingo/internal/metrics"
)

// MaxShards bounds the shard count (and the number of per-shard metric
// series a store registers).
const MaxShards = 64

// storeShard is one document partition. A shard owns its document rows,
// its link and redirect rows, and its own mutation epoch; everything a
// shard-local read needs lives behind the shard's locks, so writes to
// different shards never contend.
//
// Link rows are routed by URL: a link is stored once, in the out-link table
// of shard(From), and indexed in the in-link table of shard(To), so
// Successors, Predecessors and InAnchors stay single-shard reads. The
// in-link table is never persisted; a reopen rebuilds it from every
// shard's out-link rows. Redirect rows live on shard(From).
type storeShard struct {
	idx  int
	bits uint // copy of the store's shardBits, for DocID encoding

	docMu   sync.RWMutex // guards nextSeq, docs, byURL, byTopic
	nextSeq int64
	docs    map[DocID]*Document
	// byURL maps a document's routing key — docKey(tenant, url), which is
	// the bare URL for the default tenant — to its ID.
	byURL   map[string]DocID
	byTopic map[string][]DocID

	linkMu   sync.RWMutex
	outLinks map[string][]Link
	inLinks  map[string][]Link

	redirMu   sync.RWMutex
	redirects []Redirect

	// epoch counts this shard's mutations. The store's Epoch() is the sum
	// over shards; search keys per-shard snapshots on the individual value.
	epoch atomic.Int64

	// docsGauge is store_shard_docs{shard="i"} — the per-shard document
	// count an operator watches for hot or skewed shards.
	docsGauge *metrics.Gauge

	// tier is the shard's disk tier (nil in a purely in-memory store).
	// cold maps a document whose payload lives in a segment to its row
	// there; such a document's in-memory Text/Terms are empty, so its
	// terms and postings are read from the segment. Guarded by docMu.
	tier *shardTier
	cold map[DocID]coldRef
}

func newStoreShard(idx int, bits uint) *storeShard {
	return &storeShard{
		idx:       idx,
		bits:      bits,
		docs:      make(map[DocID]*Document),
		byURL:     make(map[string]DocID),
		byTopic:   make(map[string][]DocID),
		outLinks:  make(map[string][]Link),
		inLinks:   make(map[string][]Link),
		docsGauge: metrics.NewGauge(fmt.Sprintf(`store_shard_docs{shard="%d"}`, idx)),
	}
}

// bumpEpoch advances the shard's mutation epoch (and the process-wide
// counter).
func (sh *storeShard) bumpEpoch() {
	sh.epoch.Add(1)
	mEpochAdvances.Inc()
}

// idFor encodes a shard-local sequence number into a DocID: the shard
// index occupies the low bits, the sequence the rest. With one shard the
// encoding degenerates to the plain sequence, so single-shard stores
// assign the same IDs the unsharded store did.
func (sh *storeShard) idFor(seq int64) DocID {
	return DocID(seq<<sh.bits | int64(sh.idx))
}

// insertDocLocked inserts the document row under the shard's docMu,
// assigning its ID from the shard's sequence and removing the row it
// replaces, if the key was already present — both under the one docMu
// hold, so a postings reader sees the old row or the new one, never
// neither. A replacement never keeps the old ID: the sequence only grows
// (reopen restores it from the manifest and the WAL), which is what makes
// a DocID's Title, Text and Terms immutable (DocID).
func (sh *storeShard) insertDocLocked(d Document) DocID {
	key := d.key()
	if oldID, ok := sh.byURL[key]; ok {
		sh.removeDocLocked(oldID)
	}
	sh.nextSeq++
	d.ID = sh.idFor(sh.nextSeq)
	cp := d
	sh.docs[d.ID] = &cp
	sh.byURL[key] = d.ID
	if d.Topic != "" {
		sh.byTopic[d.Topic] = append(sh.byTopic[d.Topic], d.ID)
	}
	mDocs.Add(1)
	sh.docsGauge.Add(1)
	return d.ID
}

// removeDocLocked removes the document row and returns it, or nil if
// absent. A hot row's postings go with it; in a tiered shard a cold
// document's removal tombstones its segment row (its segment postings
// disappear with it), and a hot document's removal uncounts it from the
// memtable.
func (sh *storeShard) removeDocLocked(id DocID) *Document {
	d, ok := sh.docs[id]
	if !ok {
		return nil
	}
	delete(sh.docs, id)
	delete(sh.byURL, d.key())
	if d.Topic != "" {
		ids := sh.byTopic[d.Topic]
		for i := range ids {
			if ids[i] == id {
				sh.byTopic[d.Topic] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	if t := sh.tier; t != nil {
		if _, cold := sh.cold[id]; cold {
			delete(sh.cold, id)
			seq := int64(id) >> sh.bits
			st := t.state.load()
			tombs := copyTombs(st.tombs)
			tombs[seq] = struct{}{}
			t.state.store(&tierState{segs: st.segs, tombs: tombs})
			delete(t.overrides, seq)
		} else {
			t.addHotLocked(-docBytesRaw(d.Text, d.Terms), -1)
		}
	}
	mDocs.Add(-1)
	sh.docsGauge.Add(-1)
	return d
}

// setTopicLocked reassigns a document's topic and confidence under docMu,
// maintaining the topic index and (for cold rows) the override table.
func (sh *storeShard) setTopicLocked(id DocID, topic string, confidence float64) {
	d := sh.docs[id]
	if d.Topic != "" {
		ids := sh.byTopic[d.Topic]
		for i := range ids {
			if ids[i] == id {
				sh.byTopic[d.Topic] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	d.Topic = topic
	d.Confidence = confidence
	if topic != "" {
		sh.byTopic[topic] = append(sh.byTopic[topic], id)
	}
	sh.noteColdTopicLocked(id, topic, confidence)
}
