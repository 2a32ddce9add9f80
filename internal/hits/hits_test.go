package hits

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// star builds a hub page h pointing at n authorities on distinct hosts.
func star(g *Graph, hub string, n int) {
	for i := 0; i < n; i++ {
		g.AddEdge(hub, "hubhost", fmt.Sprintf("auth%d", i), fmt.Sprintf("host%d", i))
	}
}

func TestHITSHubAndAuthority(t *testing.T) {
	g := NewGraph()
	// Two hubs point to the same three authorities; one stray page points to
	// only one authority. auth0..2 get in-links from 2 hubs; hub pages link
	// out to all authorities.
	for _, hub := range []string{"hubA", "hubB"} {
		for i := 0; i < 3; i++ {
			g.AddEdge(hub, "h-"+hub, fmt.Sprintf("auth%d", i), fmt.Sprintf("a-host%d", i))
		}
	}
	g.AddEdge("stray", "s-host", "auth0", "a-host0")
	res := g.Run(DefaultOptions())
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	// top authority must be auth0 (3 in-links), top hubs hubA/hubB
	if res.Authorities[0].ID != "auth0" {
		t.Errorf("top authority = %v", res.Authorities[0])
	}
	topHub := res.Hubs[0].ID
	if topHub != "hubA" && topHub != "hubB" {
		t.Errorf("top hub = %v", res.Hubs[0])
	}
	// authorities have zero hub score (no out-links)
	for _, h := range res.Hubs {
		if h.ID == "auth1" && h.Value != 0 {
			t.Errorf("authority has hub score %v", h.Value)
		}
	}
}

func TestHITSNormalization(t *testing.T) {
	g := NewGraph()
	star(g, "hub", 5)
	res := g.Run(DefaultOptions())
	var sumA, sumH float64
	for _, s := range res.Authorities {
		sumA += s.Value * s.Value
	}
	for _, s := range res.Hubs {
		sumH += s.Value * s.Value
	}
	if math.Abs(sumA-1) > 1e-6 || math.Abs(sumH-1) > 1e-6 {
		t.Errorf("score vectors not unit-normalized: %v %v", sumA, sumH)
	}
}

func TestHITSIntraHostSuppression(t *testing.T) {
	g := NewGraph()
	// mutual reinforcement inside one host
	for i := 0; i < 10; i++ {
		g.AddEdge(fmt.Sprintf("spam%d", i), "spamhost", "spamtarget", "spamhost")
	}
	// a single legitimate cross-host link
	g.AddEdge("good", "goodhost", "target", "targethost")
	res := g.Run(DefaultOptions())
	if res.Authorities[0].ID != "target" {
		t.Errorf("intra-host links not suppressed: top = %v", res.Authorities[0])
	}
	// without suppression the spam target wins
	opts := DefaultOptions()
	opts.SkipIntraHost = false
	opts.HostWeighting = false
	res = g.Run(opts)
	if res.Authorities[0].ID != "spamtarget" {
		t.Errorf("expected spamtarget without suppression, got %v", res.Authorities[0])
	}
}

func TestBharatHenzingerWeighting(t *testing.T) {
	// 5 pages on one host point at target1; 3 pages on 3 hosts point at
	// target2. With 1/k weighting target2 must win; without it target1 wins.
	g := NewGraph()
	for i := 0; i < 5; i++ {
		g.AddEdge(fmt.Sprintf("mill%d", i), "millhost", "target1", "t1host")
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(fmt.Sprintf("indep%d", i), fmt.Sprintf("host%d", i), "target2", "t2host")
	}
	weighted := g.Run(Options{MaxIter: 50, HostWeighting: true})
	if weighted.Authorities[0].ID != "target2" {
		t.Errorf("BH weighting: top = %v", weighted.Authorities[0])
	}
	raw := g.Run(Options{MaxIter: 50, HostWeighting: false})
	if raw.Authorities[0].ID != "target1" {
		t.Errorf("raw HITS: top = %v", raw.Authorities[0])
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "ha", "b", "hb")
	g.AddEdge("a", "ha", "b", "hb") // duplicate
	g.AddEdge("a", "ha", "a", "ha") // self loop
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.Contains("a") || g.Contains("zzz") {
		t.Error("Contains wrong")
	}
	// host backfill
	g.AddNode("c", "")
	g.AddNode("c", "hc")
	ix := g.nodes["c"]
	if g.hosts[ix] != "hc" {
		t.Errorf("host backfill = %q", g.hosts[ix])
	}
}

func TestEmptyGraphRun(t *testing.T) {
	g := NewGraph()
	res := g.Run(DefaultOptions())
	if len(res.Authorities) != 0 || len(res.Hubs) != 0 {
		t.Errorf("empty graph result = %+v", res)
	}
}

func TestExpandBaseSet(t *testing.T) {
	succ := func(id string) []string {
		if id == "base1" {
			return []string{"s1", "s2"}
		}
		return nil
	}
	pred := func(id string) []string {
		if id == "base1" {
			return []string{"p1", "p2", "p3", "p4"}
		}
		return nil
	}
	set := ExpandBaseSet([]string{"base1", "base2"}, succ, pred, 2)
	for _, want := range []string{"base1", "base2", "s1", "s2", "p1", "p2"} {
		if _, ok := set[want]; !ok {
			t.Errorf("missing %s in %v", want, set)
		}
	}
	if _, ok := set["p3"]; ok {
		t.Error("predecessor cap not applied")
	}
	// nil callbacks
	set = ExpandBaseSet([]string{"x"}, nil, nil, 0)
	if len(set) != 1 {
		t.Errorf("set = %v", set)
	}
}

// Property: HITS scores are non-negative and ranked descending; iteration
// count respects the cap.
func TestHITSProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		g := NewGraph()
		n := 2 + rng.Intn(20)
		for i := 0; i < n*2; i++ {
			f := fmt.Sprintf("n%d", rng.Intn(n))
			to := fmt.Sprintf("n%d", rng.Intn(n))
			g.AddEdge(f, "h"+f, to, "h"+to)
		}
		res := g.Run(Options{MaxIter: 30, HostWeighting: rng.Intn(2) == 0})
		if res.Iterations > 30 {
			return false
		}
		for i, s := range res.Authorities {
			if s.Value < 0 || math.IsNaN(s.Value) {
				return false
			}
			if i > 0 && s.Value > res.Authorities[i-1].Value {
				return false
			}
		}
		for i, s := range res.Hubs {
			if s.Value < 0 || math.IsNaN(s.Value) {
				return false
			}
			if i > 0 && s.Value > res.Hubs[i-1].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHITS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := NewGraph()
	for i := 0; i < 5000; i++ {
		f := fmt.Sprintf("n%d", rng.Intn(1000))
		to := fmt.Sprintf("n%d", rng.Intn(1000))
		g.AddEdge(f, fmt.Sprintf("h%d", rng.Intn(50)), to, fmt.Sprintf("h%d", rng.Intn(50)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Run(DefaultOptions())
	}
}

// TestExpandBaseSetIgnoresPredecessorOrder: the capped predecessors are
// chosen by URL, so any order the link database returns them in — flush
// order live, rebuilt order after a reopen — yields the same node set.
func TestExpandBaseSetIgnoresPredecessorOrder(t *testing.T) {
	preds := make([]string, 120)
	for i := range preds {
		preds[i] = fmt.Sprintf("http://h%d.example/p%d", i%7, i)
	}
	preds = append(preds, preds[3], preds[40]) // repeated links
	rng := rand.New(rand.NewSource(5))
	var want map[string]struct{}
	for trial := 0; trial < 20; trial++ {
		order := append([]string(nil), preds...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		set := ExpandBaseSet([]string{"base"}, nil, func(string) []string { return order }, 50)
		if len(set) < 2 || len(set) > 51 {
			t.Fatalf("trial %d: %d nodes, want base plus at most 50 predecessors", trial, len(set))
		}
		if trial == 0 {
			want = set
		} else if !reflect.DeepEqual(set, want) {
			t.Fatalf("trial %d: a permuted predecessor list chose a different node set", trial)
		}
	}
}

func TestExpandBaseSetUnlimitedPredecessors(t *testing.T) {
	pred := func(id string) []string { return []string{"p1", "p2", "p3"} }
	set := ExpandBaseSet([]string{"b"}, nil, pred, 0) // 0 = no cap
	for _, want := range []string{"p1", "p2", "p3"} {
		if _, ok := set[want]; !ok {
			t.Errorf("missing %s", want)
		}
	}
}

// TestParallelSweepMatchesSequential forces the goroutine-chunked sweep on
// a graph above the parallelism threshold and checks it is bit-identical
// to the sequential sweep: each node's sum accumulates in the same order,
// so worker count must not change a single score.
func TestParallelSweepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := NewGraph()
	const n = 3000
	id := func(i int) string { return fmt.Sprintf("http://h%d.example/p%d", i%37, i) }
	host := func(i int) string { return fmt.Sprintf("h%d.example", i%37) }
	for i := 0; i < 4*n; i++ {
		f, to := rng.Intn(n), rng.Intn(n)
		g.AddEdge(id(f), host(f), id(to), host(to))
	}
	if g.NumNodes() < minParallelNodes {
		t.Fatalf("graph too small to exercise the parallel sweep: %d nodes", g.NumNodes())
	}

	run := func(workers int) Result {
		old := sweepWorkers
		sweepWorkers = workers
		defer func() { sweepWorkers = old }()
		return g.Run(DefaultOptions())
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 7} {
		par := run(workers)
		if par.Iterations != seq.Iterations {
			t.Fatalf("workers=%d: %d iterations, sequential took %d", workers, par.Iterations, seq.Iterations)
		}
		for i := range seq.Authorities {
			if seq.Authorities[i] != par.Authorities[i] {
				t.Fatalf("workers=%d: authority[%d] = %+v, sequential %+v",
					workers, i, par.Authorities[i], seq.Authorities[i])
			}
		}
		for i := range seq.Hubs {
			if seq.Hubs[i] != par.Hubs[i] {
				t.Fatalf("workers=%d: hub[%d] = %+v, sequential %+v",
					workers, i, par.Hubs[i], seq.Hubs[i])
			}
		}
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.example/path":  "a.example",
		"https://b.example":      "b.example",
		"no-scheme/path":         "no-scheme",
		"http://c.example/p/q#f": "c.example",
		// userinfo and port must not leak into the host used for
		// Bharat–Henzinger intra-host suppression.
		"http://user@host.example:8080/p":      "host.example",
		"http://user:pw@host.example/p":        "host.example",
		"http://host.example:80":               "host.example",
		"ftp://u@h.example:21/x?y=1":           "h.example",
		"http://HOST.Example/p":                "host.example",
		"http://host.example?q=1":              "host.example",
		"http://[2001:db8::1]:8080/p":          "2001:db8::1",
		"http://user@[2001:db8::1]/p":          "2001:db8::1",
		"2001:db8::2/path":                     "2001:db8::2", // unbracketed v6: no port to strip
		"http://a.example:8080/u@nothost/page": "a.example",
	}
	for in, want := range cases {
		if got := HostOf(in); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}
