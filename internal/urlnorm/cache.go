package urlnorm

import (
	"net/url"
	"strings"
	"sync"
)

// The crawler normalizes every extracted hyperlink, and link targets repeat
// heavily (hub pages, navigation links, co-author links), so the parse →
// normalize → serialize round-trip is memoized for absolute http(s) hrefs.
// Sharded like the analyzer's stem memo, and bounded the same way: a full
// shard is cleared and repopulates with the currently-hot URLs.
const (
	cacheShards   = 64
	cacheShardCap = 2048
)

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]string
}

// Cache memoizes Normalize for absolute http(s) URLs. An unparsable or
// non-http input is remembered as rejected. The zero value is ready to use
// and safe for concurrent use.
type Cache struct {
	shards [cacheShards]cacheShard
}

func cacheHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Cacheable reports whether raw is an absolute http(s) URL, the only inputs
// Normalize results are memoized for (relative references resolve against a
// base, so their result is not a function of the string alone).
func Cacheable(raw string) bool {
	return strings.HasPrefix(raw, "http://") || strings.HasPrefix(raw, "https://")
}

// sharedCache backs NormalizeCached.
var sharedCache Cache

// NormalizeCached is Cache.Normalize through a process-wide cache; callers
// must have checked Cacheable(raw).
func NormalizeCached(raw string) (string, bool) {
	return sharedCache.Normalize(raw)
}

// LinkResolver returns the href resolver for a document whose final URL
// (after redirects) is final, in the shape htmldoc.Convert takes: called
// with the document's <base href> ("" when it declares none) and one href,
// it returns the normalized absolute http(s) URL, or ok=false. Absolute
// hrefs don't depend on the document base, and the same targets recur
// across pages, so their normalization is memoized.
func LinkResolver(final *url.URL) func(base, href string) (string, bool) {
	return func(base, href string) (string, bool) {
		if base == "" && Cacheable(href) {
			return NormalizeCached(href)
		}
		from := final
		if base != "" {
			if b, err := final.Parse(base); err == nil {
				from = b
			}
		}
		ref, err := from.Parse(href)
		if err != nil {
			return "", false
		}
		NormalizeURL(ref)
		if ref.Scheme != "http" && ref.Scheme != "https" {
			return "", false
		}
		return ref.String(), true
	}
}

// Normalize returns the canonical form of the absolute URL raw, or ok=false
// when raw does not parse as an http(s) URL.
func (c *Cache) Normalize(raw string) (string, bool) {
	sh := &c.shards[cacheHash(raw)%cacheShards]
	sh.mu.RLock()
	v, hit := sh.m[raw]
	sh.mu.RUnlock()
	if hit {
		return v, v != ""
	}
	v = ""
	if u, err := url.Parse(raw); err == nil {
		NormalizeURL(u)
		if u.Scheme == "http" || u.Scheme == "https" {
			v = u.String()
		}
	}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]string, cacheShardCap)
	} else if len(sh.m) >= cacheShardCap {
		clear(sh.m)
	}
	sh.m[raw] = v
	sh.mu.Unlock()
	return v, v != ""
}
