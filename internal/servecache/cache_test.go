package servecache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNormalizeText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"recovery transaction", "recovery transaction"},
		{"  Recovery   TRANSACTION  ", "recovery transaction"},
		{"\trecovery\n transaction", "recovery transaction"},
		{`"Source Code" release`, `"source code" release`},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if got := NormalizeText(c.in); got != c.want {
			t.Errorf("NormalizeText(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestKeyDistinguishesTuples: every component of the key tuple must change
// the key — epochs, text, topic, exactness, weights, and k.
func TestKeyDistinguishesTuples(t *testing.T) {
	base := KeyParams{Text: "a", Topic: "ROOT/db", CosW: 1, K: 10}
	baseKey := Key([]int64{1, 2}, base)
	variants := []struct {
		name   string
		epochs []int64
		p      KeyParams
	}{
		{"epoch bump", []int64{1, 3}, base},
		{"epoch count", []int64{1, 2, 1}, base},
		{"text", []int64{1, 2}, KeyParams{Text: "b", Topic: "ROOT/db", CosW: 1, K: 10}},
		{"topic", []int64{1, 2}, KeyParams{Text: "a", Topic: "ROOT/web", CosW: 1, K: 10}},
		{"exact", []int64{1, 2}, KeyParams{Text: "a", Topic: "ROOT/db", Exact: true, CosW: 1, K: 10}},
		{"weights", []int64{1, 2}, KeyParams{Text: "a", Topic: "ROOT/db", CosW: 0.5, ConfW: 0.5, K: 10}},
		{"k", []int64{1, 2}, KeyParams{Text: "a", Topic: "ROOT/db", CosW: 1, K: 25}},
	}
	seen := map[string]string{baseKey: "base"}
	for _, v := range variants {
		k := Key(v.epochs, v.p)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %q", v.name, prev, k)
		}
		seen[k] = v.name
	}
	if again := Key([]int64{1, 2}, base); again != baseKey {
		t.Errorf("Key is not deterministic: %q vs %q", again, baseKey)
	}
}

// TestKeyFieldInjection: moving bytes between adjacent fields must not
// produce the same key (the delimiter scheme holds).
func TestKeyFieldInjection(t *testing.T) {
	a := Key([]int64{1}, KeyParams{Text: "ab", Topic: "c", CosW: 1, K: 10})
	b := Key([]int64{1}, KeyParams{Text: "a", Topic: "bc", CosW: 1, K: 10})
	if a == b {
		t.Fatalf("text/topic boundary is ambiguous: %q", a)
	}
}

func TestGetPutLRU(t *testing.T) {
	c := New(32)
	c.Put("k1", "v1")
	if v, ok := c.Get("k1"); !ok || v.(string) != "v1" {
		t.Fatalf("Get(k1) = %v, %v", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	c.Put("k1", "v2")
	if v, _ := c.Get("k1"); v.(string) != "v2" {
		t.Fatalf("overwrite lost: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestEviction fills far past capacity and asserts the entry count stays
// bounded and evictions are counted.
func TestEviction(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	ev0 := mEvicts.Value()
	for i := 0; i < capacity*10; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	// Per-shard rounding can exceed maxEntries slightly, never by more
	// than one shard's worth.
	if n := c.Len(); n > capacity+shardCount {
		t.Fatalf("Len = %d, exceeds capacity %d plus rounding", n, capacity)
	}
	if mEvicts.Value() == ev0 {
		t.Fatal("no evictions counted")
	}
}

// TestGetOrComputeMissThenHit: first call computes, second serves the
// cached value without recomputing.
func TestGetOrComputeMissThenHit(t *testing.T) {
	c := New(32)
	computes := 0
	compute := func() (any, string) {
		computes++
		return "result", ""
	}
	v, outcome := c.GetOrCompute("k", compute)
	if v.(string) != "result" || outcome != Miss {
		t.Fatalf("first call = %v, %v", v, outcome)
	}
	v, outcome = c.GetOrCompute("k", compute)
	if v.(string) != "result" || outcome != Hit {
		t.Fatalf("second call = %v, %v", v, outcome)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
}

// TestGetOrComputeStoreKeyRedirect: a compute that reports a different
// store key (the stale-snapshot case) must make the value visible under
// that key, not the lookup key.
func TestGetOrComputeStoreKeyRedirect(t *testing.T) {
	c := New(32)
	v, outcome := c.GetOrCompute("fresh", func() (any, string) { return "stale-data", "stale" })
	if v.(string) != "stale-data" || outcome != Miss {
		t.Fatalf("= %v, %v", v, outcome)
	}
	if _, ok := c.Get("fresh"); ok {
		t.Fatal("value stored under the lookup key despite redirect")
	}
	if v, ok := c.Get("stale"); !ok || v.(string) != "stale-data" {
		t.Fatal("value not stored under the redirect key")
	}
}

// TestGetOrComputeDoNotStore: a compute that returns DoNotStore answers
// its caller and leaves nothing behind, so the next lookup computes again.
func TestGetOrComputeDoNotStore(t *testing.T) {
	c := New(32)
	for i := 0; i < 2; i++ {
		v, outcome := c.GetOrCompute("k", func() (any, string) { return i, DoNotStore })
		if v.(int) != i || outcome != Miss {
			t.Fatalf("call %d = %v, %v, want a fresh miss", i, v, outcome)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("%d entries stored, want 0", c.Len())
	}
}

// TestSingleflightCollapse: N concurrent misses on one key run compute
// exactly once; everyone gets the same value. The leader is parked inside
// compute before any follower starts, so followers land on the open
// flight (a follower delayed past the leader's completion legitimately
// reads the cache instead — tolerated, but at least one must collapse).
func TestSingleflightCollapse(t *testing.T) {
	c := New(32)
	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})
	const followers = 15

	var wg sync.WaitGroup
	var leaderVal any
	var leaderOutcome Outcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderVal, leaderOutcome = c.GetOrCompute("hot", func() (any, string) {
			computes.Add(1)
			close(entered) // flight is registered; followers may start
			<-gate
			return "shared", ""
		})
	}()
	<-entered

	results := make([]any, followers)
	outcomes := make([]Outcome, followers)
	started := make(chan struct{}, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			results[i], outcomes[i] = c.GetOrCompute("hot", func() (any, string) {
				computes.Add(1)
				return "recomputed", ""
			})
		}(i)
	}
	for i := 0; i < followers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight must collapse)", got)
	}
	if leaderOutcome != Miss || leaderVal.(string) != "shared" {
		t.Fatalf("leader = %v, %v", leaderVal, leaderOutcome)
	}
	collapsed := 0
	for i := 0; i < followers; i++ {
		if results[i].(string) != "shared" {
			t.Fatalf("follower %d got %v", i, results[i])
		}
		switch outcomes[i] {
		case Collapsed:
			collapsed++
		case Hit: // arrived after the leader finished
		default:
			t.Fatalf("follower %d outcome = %v", i, outcomes[i])
		}
	}
	if collapsed == 0 {
		t.Fatal("no collapsed followers recorded")
	}
}

// TestConcurrentMixedOps is the -race workout: concurrent Get/Put/
// GetOrCompute over overlapping keys.
func TestConcurrentMixedOps(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%60)
				switch i % 3 {
				case 0:
					c.Put(key, i)
				case 1:
					c.Get(key)
				default:
					c.GetOrCompute(key, func() (any, string) { return i, "" })
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyTenantDistinguishes: identical queries from two tenants never
// share a cache entry, the tenant/exact boundary is unambiguous, and the
// default tenant's keys are unchanged by construction from pre-tenancy
// callers that leave the field zero.
func TestKeyTenantDistinguishes(t *testing.T) {
	base := KeyParams{Text: "a", Topic: "ROOT/db", CosW: 1, K: 10}
	withTenant := base
	withTenant.Tenant = "beta"
	if Key([]int64{1}, base) == Key([]int64{1}, withTenant) {
		t.Fatal("tenant not part of the key")
	}
	// Boundary ambiguity: tenant "x" + exact vs tenant "xx" etc.
	a := KeyParams{Text: "q", Tenant: "x", Exact: true, CosW: 1, K: 10}
	b := KeyParams{Text: "q", Tenant: "xx", CosW: 1, K: 10}
	if Key([]int64{1}, a) == Key([]int64{1}, b) {
		t.Fatal("tenant/exact boundary is ambiguous")
	}
	c := KeyParams{Text: "q", Topic: "t", Tenant: "u", CosW: 1, K: 10}
	d := KeyParams{Text: "q", Topic: "tu", CosW: 1, K: 10}
	if Key([]int64{1}, c) == Key([]int64{1}, d) {
		t.Fatal("topic/tenant boundary is ambiguous")
	}
}
