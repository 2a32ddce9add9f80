package fetch

import (
	"hash/fnv"
	"strconv"
	"sync"
)

// Deduper implements the crawler's multi-fingerprint duplicate detection
// (§4.2). Documents may be reachable through different path aliases on one
// host, so three increasingly expensive fingerprints are checked in order:
//
//  1. the hash code of the visited URL (cheap; small risk of a false
//     dismissal, which the paper accepts),
//  2. the combination of resolved IP address and resource path,
//  3. the combination of IP address and file size, checked after the
//     download starts (file size is assumed unique within one host).
type Deduper struct {
	mu      sync.Mutex
	urls    map[uint64]struct{}
	ipPath  map[uint64]struct{}
	ipSize  map[uint64]struct{}
	skipped int64
}

// NewDeduper returns an empty duplicate detector.
func NewDeduper() *Deduper {
	return &Deduper{
		urls:   make(map[uint64]struct{}),
		ipPath: make(map[uint64]struct{}),
		ipSize: make(map[uint64]struct{}),
	}
}

func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// SeenURL records the URL and reports whether its hash was already present.
func (d *Deduper) SeenURL(url string) bool {
	k := hash64(url)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.urls[k]; ok {
		d.skipped++
		return true
	}
	d.urls[k] = struct{}{}
	return false
}

// SeenIPPath records the (ip, path) pair and reports prior presence.
func (d *Deduper) SeenIPPath(ip, path string) bool {
	k := hash64("p", ip, path)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.ipPath[k]; ok {
		d.skipped++
		return true
	}
	d.ipPath[k] = struct{}{}
	return false
}

func ipSizeKey(ip string, size int64) uint64 {
	return hash64("s", ip, strconv.FormatInt(size, 10))
}

// SeenIPSize records the (ip, size) pair and reports prior presence.
func (d *Deduper) SeenIPSize(ip string, size int64) bool {
	k := ipSizeKey(ip, size)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.ipSize[k]; ok {
		d.skipped++
		return true
	}
	d.ipSize[k] = struct{}{}
	return false
}

// visitMarks lists the fingerprints one visit newly recorded: its URL,
// and each (ip, path) and (ip, size) pair no earlier visit had.
type visitMarks struct {
	url     string
	ipPaths [][2]string
	ipSizes []ipSize
}

type ipSize struct {
	ip   string
	size int64
}

// forgetVisit drops the marks of an abandoned visit. A later visit of the
// URL is then not dismissed as a duplicate of one that never happened.
func (d *Deduper) forgetVisit(m *visitMarks) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.urls, hash64(m.url))
	for _, p := range m.ipPaths {
		delete(d.ipPath, hash64("p", p[0], p[1]))
	}
	for _, s := range m.ipSizes {
		delete(d.ipSize, ipSizeKey(s.ip, s.size))
	}
}

// Skipped returns how many candidates were dismissed as duplicates.
func (d *Deduper) Skipped() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.skipped
}
