// Package servecache is the query-result cache in front of the serving
// path: a sharded LRU keyed on the tuple (store mutation epoch vector,
// normalized query, result count). The epoch vector makes entries correct
// by construction — a write to any store shard bumps that shard's epoch,
// every subsequent lookup builds a different key and naturally misses, and
// the stale entries simply age out of the LRU. No explicit invalidation
// path exists because none is needed; the Zipf head of a query mix is
// served without touching postings for as long as the store is quiet.
//
// Concurrent identical misses are collapsed by a per-key singleflight: the
// first requester computes, the rest wait and share the result, so a hot
// query arriving N times during one scoring pass costs one scoring pass.
package servecache

import (
	"container/list"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"github.com/bingo-search/bingo/internal/metrics"
)

var (
	mHits      = metrics.NewCounter("servecache_hits_total")
	mMisses    = metrics.NewCounter("servecache_misses_total")
	mEvicts    = metrics.NewCounter("servecache_evictions_total")
	mCollapsed = metrics.NewCounter("servecache_collapsed_total")
	mEntries   = metrics.NewGauge("servecache_entries")
)

func init() {
	// Derived hit ratio, sampled at exposition time: the single series a
	// cache-hit-rate-collapse diagnosis starts from (see OPERATIONS.md).
	metrics.RegisterFloatGaugeFunc("servecache_hit_ratio", func() float64 {
		h, m := mHits.Value(), mMisses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}

// shardCount is the lock-striping factor. 16 shards keep mutex contention
// negligible at the request rates one process serves.
const shardCount = 16

// Outcome classifies one GetOrCompute call.
type Outcome int

const (
	// Hit: the value was served from the cache.
	Hit Outcome = iota
	// Miss: this caller computed the value.
	Miss
	// Collapsed: another caller was already computing the same key; this
	// caller waited and shares its result.
	Collapsed
)

// Cache is the sharded LRU. All methods are safe for concurrent use.
type Cache struct {
	perShard int
	shards   [shardCount]cacheShard

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

type cacheShard struct {
	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

type flightCall struct {
	wg  sync.WaitGroup
	val any
}

// New builds a cache holding roughly maxEntries results (capacity is
// divided across the lock shards, so the effective bound is maxEntries
// rounded up to a multiple of the shard count). maxEntries <= 0 takes the
// default of 4096.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	per := (maxEntries + shardCount - 1) / shardCount
	c := &Cache{perShard: per, flight: make(map[string]*flightCall)}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[fnv32(key)&(shardCount-1)]
}

// Get returns the cached value for key, updating recency.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores val under key, evicting the least recently used entry of the
// key's shard when that shard is at capacity.
func (c *Cache) Put(key string, val any) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= c.perShard {
		back := s.ll.Back()
		if back != nil {
			s.ll.Remove(back)
			delete(s.entries, back.Value.(*lruEntry).key)
			mEvicts.Inc()
			mEntries.Add(-1)
		}
	}
	s.entries[key] = s.ll.PushFront(&lruEntry{key: key, val: val})
	mEntries.Add(1)
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].ll.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// DoNotStore, returned by a GetOrCompute compute function as its store
// key, hands the value to the caller and its collapsed waiters without
// caching it: an answer that is not a function of its key (a degraded or
// failed one) must not answer later requests.
const DoNotStore = "\x00"

// GetOrCompute returns the value for key, computing it on a miss with
// concurrent identical misses collapsed into one compute call. compute
// returns the value plus the key to store it under: normally "" (store
// under the lookup key), but a compute that discovers it ran against
// different state than the lookup key claims — a search served from a
// stale snapshot — returns the key matching the state it actually saw, so
// the entry can never be returned to a requester whose key it does not
// answer. DoNotStore stores nothing.
func (c *Cache) GetOrCompute(key string, compute func() (val any, storeKey string)) (any, Outcome) {
	if v, ok := c.Get(key); ok {
		mHits.Inc()
		return v, Hit
	}
	c.flightMu.Lock()
	if call, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		call.wg.Wait()
		mCollapsed.Inc()
		return call.val, Collapsed
	}
	// A leader may have stored its value and left its flight between the
	// miss above and taking flightMu; it stores before it leaves, so the
	// cache answers now.
	if v, ok := c.Get(key); ok {
		c.flightMu.Unlock()
		mHits.Inc()
		return v, Hit
	}
	call := &flightCall{}
	call.wg.Add(1)
	c.flight[key] = call
	c.flightMu.Unlock()

	mMisses.Inc()
	defer func() {
		c.flightMu.Lock()
		delete(c.flight, key)
		c.flightMu.Unlock()
		call.wg.Done()
	}()
	val, storeKey := compute()
	call.val = val
	if storeKey == "" {
		storeKey = key
	}
	if storeKey != DoNotStore {
		c.Put(storeKey, val)
	}
	return val, Miss
}

// NormalizeText canonicalizes a query string for cache keying: leading and
// trailing whitespace is dropped, interior whitespace runs collapse to one
// space, and letters are lower-cased. The tokenizer lower-cases and splits
// on non-alphanumerics, so normalization is semantics-preserving — two
// texts with equal normal forms stem identically (quotes, which delimit
// phrases, are preserved).
func NormalizeText(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// KeyParams is the query half of a cache key. Text must already be
// normalized (NormalizeText) and the weight/limit defaults resolved, so
// equivalent requests agree on one key.
type KeyParams struct {
	Text  string
	Topic string
	// Tenant scopes the entry to one portal ("" = the default tenant).
	// It is a dedicated key field, so two tenants' identical queries can
	// never collide on one cache entry.
	Tenant string
	Exact  bool
	// Resolved ranking weights (the engine's defaults applied).
	CosW, ConfW, AuthW float64
	// K is the resolved result limit.
	K int
}

// Key builds the cache key for a query observed at the given per-shard
// epoch vector. Every field is delimited or fixed-width, so distinct
// tuples can never collide.
func Key(epochs []int64, p KeyParams) string {
	var b strings.Builder
	b.Grow(len(p.Text) + len(p.Topic) + len(p.Tenant) + 16*len(epochs) + 64)
	for _, e := range epochs {
		b.WriteString(strconv.FormatInt(e, 36))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(p.Text)
	b.WriteByte(0)
	b.WriteString(p.Topic)
	b.WriteByte(0)
	b.WriteString(p.Tenant)
	b.WriteByte(0)
	if p.Exact {
		b.WriteByte('x')
	}
	b.WriteByte(0)
	for _, w := range [...]float64{p.CosW, p.ConfW, p.AuthW} {
		b.WriteString(strconv.FormatUint(math.Float64bits(w), 36))
		b.WriteByte(',')
	}
	b.WriteString(strconv.Itoa(p.K))
	return b.String()
}

// fnv32 is the FNV-1a hash used to pick a lock shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
