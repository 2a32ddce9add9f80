// Package hits implements the link-analysis distiller of BINGO! (§2.5): a
// variation of Kleinberg's HITS algorithm with the Bharat–Henzinger
// improvements, applied per topic to identify authorities (candidates for
// archetype promotion) and hubs (the best candidates to crawl next).
package hits

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
)

// Process-wide link-analysis metrics: run counts, total power iterations,
// wall time, and the final L1 delta of the most recent run. A convergence
// delta stuck near the tolerance (or iteration counts pinned at MaxIter)
// means the graph is not converging and ranks are still moving.
var (
	mRuns       = metrics.NewCounter("hits_runs_total")
	mIterations = metrics.NewCounter("hits_iterations_total")
	mRunNanos   = metrics.NewHistogram("hits_run_nanos")
	mLastDelta  = metrics.NewFloatGauge("hits_convergence_delta")
)

// Graph is a directed hyperlink graph over string node ids (URLs).
type Graph struct {
	nodes map[string]int
	ids   []string
	hosts []string
	// edgeSet deduplicates edges.
	edgeSet map[[2]int]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]int), edgeSet: make(map[[2]int]struct{})}
}

// AddNode inserts a node with its host (used for Bharat–Henzinger edge
// weighting and intra-host edge suppression). Re-adding is a no-op that may
// update an empty host.
func (g *Graph) AddNode(id, host string) int {
	if ix, ok := g.nodes[id]; ok {
		if g.hosts[ix] == "" {
			g.hosts[ix] = host
		}
		return ix
	}
	ix := len(g.ids)
	g.nodes[id] = ix
	g.ids = append(g.ids, id)
	g.hosts = append(g.hosts, host)
	return ix
}

// AddEdge inserts a directed edge from -> to, creating nodes as needed.
// Self-loops and duplicate edges are ignored.
func (g *Graph) AddEdge(from, fromHost, to, toHost string) {
	f := g.AddNode(from, fromHost)
	t := g.AddNode(to, toHost)
	if f == t {
		return
	}
	key := [2]int{f, t}
	if _, dup := g.edgeSet[key]; dup {
		return
	}
	g.edgeSet[key] = struct{}{}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// Contains reports whether the graph has the node.
func (g *Graph) Contains(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// Score is one node's rank value.
type Score struct {
	ID    string
	Value float64
}

// Result carries the converged authority and hub vectors.
type Result struct {
	Authorities []Score // descending by value
	Hubs        []Score // descending by value
	Iterations  int
}

// Options controls the HITS computation.
type Options struct {
	// MaxIter caps the power iterations (default 50).
	MaxIter int
	// Tolerance is the L1 convergence threshold (default 1e-8).
	Tolerance float64
	// SkipIntraHost drops edges within one host, the classic guard against
	// navigational self-links (Bharat–Henzinger).
	SkipIntraHost bool
	// HostWeighting applies the Bharat–Henzinger 1/k edge weights: if k
	// documents on one host all point to the same target, each such edge
	// contributes authority weight 1/k (and symmetrically 1/k hub weight for
	// multiple targets on one host pointed to by one document's host).
	HostWeighting bool
}

// DefaultOptions enables both Bharat–Henzinger improvements.
func DefaultOptions() Options {
	return Options{MaxIter: 50, Tolerance: 1e-8, SkipIntraHost: true, HostWeighting: true}
}

// Run computes hub and authority scores with the iterative principal
// eigenvector approximation, normalizing after every step.
func (g *Graph) Run(opts Options) Result {
	mRuns.Inc()
	runStart := time.Now()
	defer mRunNanos.ObserveSince(runStart)
	n := len(g.ids)
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-8
	}
	auth := make([]float64, n)
	hub := make([]float64, n)
	for i := range auth {
		auth[i], hub[i] = 1, 1
	}

	// Weighted adjacency, one arc list per node: inArcs feeds the authority
	// sweep (in-neighbors contribute hub mass), outArcs the hub sweep. The
	// per-node layout is what lets the sweeps run on goroutine-chunked node
	// ranges without write conflicts — each goroutine owns a disjoint range
	// of destination nodes.
	// Collect the surviving edges in a deterministic order: edgeSet is a
	// map, and letting its iteration order pick the floating-point
	// summation order would make scores wobble in the last ulp between
	// runs over the same graph.
	edges := make([][2]int, 0, len(g.edgeSet))
	for e := range g.edgeSet {
		if opts.SkipIntraHost && g.hosts[e[0]] == g.hosts[e[1]] {
			continue
		}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})

	inArcs := make([][]arc, n)
	outArcs := make([][]arc, n)
	addArc := func(f, t int, w float64) {
		inArcs[t] = append(inArcs[t], arc{nb: f, w: w})
		outArcs[f] = append(outArcs[f], arc{nb: t, w: w})
	}
	if opts.HostWeighting {
		// Bharat–Henzinger 1/k weights: count in-edges per (target,
		// source-host) and out-edges per (source, target-host).
		inHost := make(map[[2]string]int)
		outHost := make(map[[2]string]int)
		for _, e := range edges {
			f, t := e[0], e[1]
			inHost[[2]string{g.ids[t], g.hosts[f]}]++
			outHost[[2]string{g.ids[f], g.hosts[t]}]++
		}
		for _, e := range edges {
			f, t := e[0], e[1]
			aw := 1.0 / float64(inHost[[2]string{g.ids[t], g.hosts[f]}])
			hw := 1.0 / float64(outHost[[2]string{g.ids[f], g.hosts[t]}])
			// combine: use sqrt so a single weight serves both directions
			addArc(f, t, math.Sqrt(aw*hw))
		}
	} else {
		for _, e := range edges {
			addArc(e[0], e[1], 1)
		}
	}

	newAuth := make([]float64, n)
	newHub := make([]float64, n)
	iters := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		// As in the classic formulation, the hub sweep reads the *updated*
		// (pre-normalization) authority vector.
		sweep(newAuth, inArcs, hub)
		sweep(newHub, outArcs, newAuth)
		normalize(newAuth)
		normalize(newHub)
		delta := 0.0
		for i := range auth {
			delta += math.Abs(newAuth[i]-auth[i]) + math.Abs(newHub[i]-hub[i])
		}
		auth, newAuth = newAuth, auth
		hub, newHub = newHub, hub
		mLastDelta.Set(delta)
		if delta < opts.Tolerance {
			break
		}
	}
	mIterations.Add(int64(iters))

	res := Result{Iterations: iters}
	res.Authorities = g.ranked(auth)
	res.Hubs = g.ranked(hub)
	return res
}

// arc is one weighted adjacency entry: the neighbor's node index and the
// (Bharat–Henzinger) edge weight.
type arc struct {
	nb int
	w  float64
}

// sweepWorkers caps the goroutines used per sweep. It defaults to the
// machine's parallelism; tests override it to force the chunked path.
var sweepWorkers = runtime.GOMAXPROCS(0)

// minParallelNodes gates the chunked sweep: below this node count the
// goroutine fan-out costs more than the multiply-adds it spreads.
const minParallelNodes = 1024

// sweep computes dst[i] = Σ arcs[i].w · src[arcs[i].nb] for every node,
// splitting the node range across goroutines on large graphs. Each node's
// sum is accumulated in the same order as the sequential loop, so the
// result is bit-identical regardless of worker count.
func sweep(dst []float64, arcs [][]arc, src []float64) {
	n := len(dst)
	workers := sweepWorkers
	if n < minParallelNodes || workers <= 1 {
		sweepRange(dst, arcs, src, 0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sweepRange(dst, arcs, src, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func sweepRange(dst []float64, arcs [][]arc, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for _, a := range arcs[i] {
			sum += a.w * src[a.nb]
		}
		dst[i] = sum
	}
}

func (g *Graph) ranked(scores []float64) []Score {
	out := make([]Score, len(scores))
	for i, s := range scores {
		out[i] = Score{ID: g.ids[i], Value: s}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value > out[b].Value
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func normalize(v []float64) {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if sum == 0 {
		return
	}
	inv := 1 / math.Sqrt(sum)
	for i := range v {
		v[i] *= inv
	}
}

// HostOf extracts the host part of an absolute URL without a full parse:
// scheme, path/query/fragment, userinfo, and port are stripped, so
// `http://user@Host.example:8080/p` and `http://host.example/q` agree on
// the host the Bharat–Henzinger heuristics group by. A bracketed IPv6
// literal keeps its colons; an unbracketed multi-colon rest is returned
// as-is (no port to strip). Both HITS graphs, archetype selection's and
// authority ranking's, take their hosts from here, so they agree on which
// links are intra-host.
func HostOf(u string) string {
	rest := u
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, '@'); i >= 0 {
		rest = rest[i+1:]
	}
	if strings.HasPrefix(rest, "[") {
		if i := strings.IndexByte(rest, ']'); i >= 0 {
			return rest[1:i]
		}
		return rest
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 && strings.IndexByte(rest[i+1:], ':') < 0 {
		rest = rest[:i]
	}
	return strings.ToLower(rest)
}

// ExpandBaseSet implements the §2.5 node-set construction: starting from the
// base set (documents classified into the topic), add all successors and up
// to maxPred predecessors per base document, both obtained from the provided
// link-database callbacks. A capped base document keeps its maxPred
// lexicographically smallest predecessors, so the set does not depend on
// the order the link database returns them in.
func ExpandBaseSet(base []string, successors, predecessors func(id string) []string, maxPred int) map[string]struct{} {
	set := make(map[string]struct{}, len(base)*2)
	for _, b := range base {
		set[b] = struct{}{}
	}
	for _, b := range base {
		if successors != nil {
			for _, s := range successors(b) {
				set[s] = struct{}{}
			}
		}
		if predecessors != nil {
			preds := predecessors(b)
			if maxPred > 0 && len(preds) > maxPred {
				preds = append([]string(nil), preds...)
				sort.Strings(preds)
				preds = preds[:maxPred]
			}
			for _, p := range preds {
				set[p] = struct{}{}
			}
		}
	}
	return set
}
