package memo

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func upper(s string) string { return strings.ToUpper(s) }

// memos numbers the test memos: a name registers its counters once per
// process, so a repeated test (-count) needs a fresh name for fresh ones.
var memos atomic.Int64

func newTestMemo() *Memo { return New(fmt.Sprintf("test%d", memos.Add(1))) }

// keysInShard returns n distinct keys that all hash to shard s.
func keysInShard(s uint32, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); hash(k)%shards == s {
			out = append(out, k)
		}
	}
	return out
}

// TestCounters: N distinct keys are N entries and N misses, their bytes
// are the keys' and values' lengths, and a second pass over them is all
// hits — no miss, no entry, no byte more.
func TestCounters(t *testing.T) {
	m := newTestMemo()
	const n = 1000
	var bytes int64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("word%d", i)
			if got := m.Get(k, upper); got != upper(k) {
				t.Fatalf("Get(%q) = %q", k, got)
			}
			if pass == 0 {
				bytes += int64(2 * len(k))
			}
		}
		m.Lookups(n)
	}
	if e, ms, b := m.entries.Value(), m.misses.Value(), m.bytes.Value(); e != n || ms != n || b != bytes {
		t.Fatalf("entries %d, misses %d, bytes %d; want %d, %d, %d", e, ms, b, n, n, bytes)
	}
	if l, c := m.lookups.Value(), m.clears.Value(); l != 2*n || c != 0 {
		t.Fatalf("lookups %d, clears %d; want %d, 0", l, c, 2*n)
	}
}

// TestClearOnFull: a shard holds shardCap entries; the next miss in it
// clears it once, and its entries and bytes restart from that key.
func TestClearOnFull(t *testing.T) {
	m := newTestMemo()
	keys := keysInShard(7, shardCap+1)
	for _, k := range keys {
		m.Get(k, upper)
	}
	last := keys[shardCap]
	if c := m.clears.Value(); c != 1 {
		t.Fatalf("clears = %d after %d keys in one shard, want 1", c, len(keys))
	}
	want := int64(2 * len(last))
	if e, b, sb := m.entries.Value(), m.bytes.Value(), m.shards[7].bytes; e != 1 || b != want || sb != want {
		t.Fatalf("after the clear: entries %d, bytes %d, shard bytes %d; want 1, %d, %d", e, b, sb, want, want)
	}
	if got := m.Get(last, func(string) string { t.Fatal("miss on the key stored after the clear"); return "" }); got != upper(last) {
		t.Fatalf("Get(%q) = %q", last, got)
	}
}

// TestFreshMemoHeap: a memo reserves nothing. A new memo holding one
// entry leaves under 64 KiB live; a map made at the shard bound would
// leave ≈ 140 KiB for that one shard.
func TestFreshMemoHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newTestMemo()
	m.Get("resident", upper)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live >= 64<<10 {
		t.Fatalf("a memo with one entry leaves %d bytes live, want < 64 KiB", live)
	}
}

// TestConcurrentGetsAndClears: 8 goroutines walk overlapping windows of
// one key range across every shard, enough keys that shards fill and
// clear while others read. Every Get returns its key's value, and the
// counters stay consistent: entries and bytes match what the shards hold.
func TestConcurrentGetsAndClears(t *testing.T) {
	m := newTestMemo()
	const workers, keys = 8, 3 * shards * shardCap / 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys/2; i++ {
				k := fmt.Sprintf("k%d", (i+w*keys/(2*workers))%keys)
				if got := m.Get(k, upper); got != upper(k) {
					t.Errorf("Get(%q) = %q", k, got)
					return
				}
			}
			m.Lookups(keys / 2)
		}(w)
	}
	wg.Wait()
	if m.clears.Value() == 0 {
		t.Fatal("no shard cleared: the test does not exercise clear-on-full")
	}
	var entries, bytes int64
	for i := range m.shards {
		entries += int64(len(m.shards[i].m))
		bytes += m.shards[i].bytes
	}
	if e, b := m.entries.Value(), m.bytes.Value(); e != entries || b != bytes {
		t.Fatalf("gauges read %d entries, %d bytes; shards hold %d, %d", e, b, entries, bytes)
	}
	if m.lookups.Value() != workers*keys/2 {
		t.Fatalf("lookups = %d, want %d", m.lookups.Value(), workers*keys/2)
	}
}
