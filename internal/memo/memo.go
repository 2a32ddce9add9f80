// Package memo is the bounded string memo the analyzer's stem decisions
// and the crawler's URL normalization share: results of a pure
// string → string function, kept process-wide because the same inputs
// recur across documents and queries (Zipfian vocabulary, hub and
// navigation links).
//
// A Memo is 64 maps sharded by FNV-1a hash, so crawl workers and queries
// rarely meet on one lock. Each shard holds at most 2048 entries; a full
// shard is cleared and repopulates with what is hot, which with a Zipfian
// key stream costs a few documents of misses and no LRU bookkeeping. The
// bound is an upper limit, not a reservation: a shard's map is made
// empty on its first miss and grows with the entries it holds, so a memo
// costs what its working set needs.
//
// Every memo exports entries, resident key+value bytes, lookups, misses
// and clears on /metricsz as memo_<name>_*. All but lookups move only on
// the miss path under the shard's write lock; callers count lookups once
// per batch with Lookups, so a hit adds no atomic operation.
package memo

import (
	"strings"
	"sync"

	"github.com/bingo-search/bingo/internal/metrics"
)

const (
	shards   = 64
	shardCap = 2048 // entries per shard; 131,072 per memo at most
)

type shard struct {
	mu    sync.RWMutex
	m     map[string]string
	bytes int64 // key+value bytes of m
}

// Memo memoizes a string function. It is safe for concurrent use.
type Memo struct {
	shards [shards]shard

	entries, bytes          *metrics.Gauge
	lookups, misses, clears *metrics.Counter
}

// New returns an empty memo whose counters are the default registry's
// memo_<name>_entries, _bytes, _lookups_total, _misses_total and
// _clears_total.
func New(name string) *Memo {
	p := "memo_" + name + "_"
	return &Memo{
		entries: metrics.NewGauge(p + "entries"),
		bytes:   metrics.NewGauge(p + "bytes"),
		lookups: metrics.NewCounter(p + "lookups_total"),
		misses:  metrics.NewCounter(p + "misses_total"),
		clears:  metrics.NewCounter(p + "clears_total"),
	}
}

func hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Get returns the memoized value of key, calling compute(key) and
// remembering its result on a miss. compute must be a pure function of
// key; it runs outside the shard's lock.
func (m *Memo) Get(key string, compute func(string) string) string {
	sh := &m.shards[hash(key)%shards]
	sh.mu.RLock()
	v, hit := sh.m[key]
	sh.mu.RUnlock()
	if hit {
		return v
	}
	v = compute(key)
	m.put(sh, key, v)
	return v
}

// put stores key → v in sh. Both strings are copied: a key cut from a
// page's text would otherwise keep the whole page alive for as long as
// the entry lives.
func (m *Memo) put(sh *shard, key, v string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m.misses.Inc()
	if _, dup := sh.m[key]; dup { // another goroutine missed on key first
		return
	}
	if sh.m == nil {
		sh.m = make(map[string]string)
	} else if len(sh.m) >= shardCap {
		m.entries.Add(-int64(len(sh.m)))
		m.bytes.Add(-sh.bytes)
		clear(sh.m)
		sh.bytes = 0
		m.clears.Inc()
	}
	sh.m[strings.Clone(key)] = strings.Clone(v)
	n := int64(len(key) + len(v))
	sh.bytes += n
	m.entries.Add(1)
	m.bytes.Add(n)
}

// Lookups counts n lookups. Callers add a batch's count once (a document's
// tokens, one href), never once per Get.
func (m *Memo) Lookups(n int) { m.lookups.Add(int64(n)) }
