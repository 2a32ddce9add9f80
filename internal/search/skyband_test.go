package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
)

// The skyband property: for random survivors split over random partitions,
// random non-negative weights (zeros included), random admissible maxima
// at or above every local one and random plan bounds — loose, tight, absent
// or wrong — merging the partitions' K-skybands gives the full passTwo
// ranking over all survivors bit for bit — URLs, scores and components,
// URL tie-breaks included — after at most one retry without bounds, and
// each partition ships exactly the skyband its definition names. Component
// values are drawn from small pools so that exact duplicates, equal
// scores, ulp-adjacent neighbours (math.Nextafter), subnormals, negative
// confidences, overflowing weights and both sides of clause (b)'s 2⁻⁶⁴
// weight floor and 2⁻⁴⁰ margin all occur.

type synthRow struct {
	url             string
	cos, conf, auth float64
}

// synthScratch lays rows out as an already-scattered scoreScratch: one
// store shard per element of shards, every row a survivor with the given
// raw components.
func synthScratch(shards [][]synthRow, w Weights, withAuth bool) *scoreScratch {
	v := &searchView{}
	qs := &scoreScratch{view: v, q: Query{Weights: w}}
	if withAuth {
		qs.auth = make([][]float64, len(shards))
	}
	for si, rows := range shards {
		n := len(rows) + 1 // seq 0 stays a hole
		sn := &shardSnap{shard: si, docs: make([]store.Document, n)}
		sc := newShardScratch(si)
		sc.snap, sc.acc, sc.matched = sn, make([]float64, n), make([]int32, n)
		if withAuth {
			qs.auth[si] = make([]float64, n)
		}
		for j, r := range rows {
			seq := j + 1
			sn.docs[seq] = store.Document{ID: store.DocID(seq), URL: r.url, Title: "title " + r.url, Topic: "ROOT/t", Confidence: r.conf}
			sc.acc[seq], sc.matched[seq] = r.cos, 1
			sc.cand = append(sc.cand, seq)
			sc.survivors++
			sc.maxCos, sc.maxConf = max(sc.maxCos, r.cos), max(sc.maxConf, r.conf)
			if withAuth {
				qs.auth[si][seq] = r.auth
				sc.maxAuth = max(sc.maxAuth, r.auth)
			}
		}
		v.shards = append(v.shards, sn)
		qs.shards = append(qs.shards, sc)
	}
	return qs
}

// valuePool returns component values rich in the edge cases the skyband
// reasons about: a cluster of ulp-adjacent values around x and around
// fl(x·(1+2⁻⁴⁰)) where the top K usually ends, exact duplicates and lower
// values — all scaled by 1, 2⁻⁶² or 2⁻¹⁰⁶⁰ (where they turn subnormal) —
// plus both sides of 2⁻⁶⁴, and sometimes mostly zeros. With neg, a third
// of the pools also hold negative values.
func valuePool(rng *rand.Rand, neg bool) []float64 {
	x := 0.05 + 0.9*rng.Float64()
	m := x * (1 + marginEps)
	up, down := func(v float64) float64 { return math.Nextafter(v, 2) }, func(v float64) float64 { return math.Nextafter(v, 0) }
	pool := []float64{x, x, up(x), up(up(x)), down(x), down(down(x)), m, m, up(m), down(m), down(down(m)),
		x / 2, x * rng.Float64(), x * rng.Float64()}
	if rng.Intn(4) == 0 {
		pool = append(pool, 1, rng.Float64())
	}
	scale := [...]float64{1, 1, 1, 0x1p-62, 0x1p-1060}[rng.Intn(5)]
	for i := range pool {
		pool[i] *= scale
	}
	pool = append(pool, 0, marginLo, down(marginLo), marginLo*(1+marginEps), 0x1p-70, 5e-324)
	if neg && rng.Intn(3) == 0 {
		for _, v := range pool[:6] {
			pool = append(pool, -v, -v/4)
		}
	}
	if rng.Intn(3) == 0 {
		pool = append(pool, make([]float64, 3*len(pool))...)
	}
	return pool
}

func pickWeight(rng *rand.Rand) float64 {
	ws := []float64{0, 0, 0, 1, 1, 0.5, 0.3, marginLo, 0x1p-65, 0x1p-1000, marginHi, 0x1p70, math.MaxFloat64, math.Nextafter(1, 0)}
	if rng.Intn(4) == 0 {
		return rng.Float64()
	}
	return ws[rng.Intn(len(ws))]
}

// bruteSkyband is the skyband by definition: every survivor best first
// under the local maxima (score descending, URL ascending), shipped unless
// k already shipped rows surely precede it.
func bruteSkyband(qs *scoreScratch, k int, b Bounds, local *ScoreStats) map[string]bool {
	var rows []topEntry
	for _, sc := range qs.shards {
		for _, i := range sc.cand {
			en := topEntry{si: int32(sc.shard), seq: int32(i)}
			x := qs.comps(en)
			en.score = rankScore(qs.q.Weights, x[0], x[1], x[2], local.MaxCos, local.MaxConf, local.MaxAuth, qs.auth != nil)
			rows = append(rows, en)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return qs.worse(rows[b], rows[a]) })
	rule := newSkyRule(qs.q.Weights, b, local)
	var shipped []skyRow
	out := map[string]bool{}
	for _, en := range rows {
		var d skyRow
		qs.skyRow(&rule, en, &d)
		beaten := 0
		for j := range shipped {
			if rule.surelyPrecedes(&shipped[j], &d) {
				beaten++
			}
		}
		if beaten < k {
			shipped = append(shipped, d)
			out[d.url] = true
		}
	}
	return out
}

// admissible draws a global maximum at or above local, at most 1 when
// local is, or up to MaxFloat64, where normalized values underflow.
func admissible(rng *rand.Rand, local float64) float64 {
	switch rng.Intn(4) {
	case 0:
		return local
	case 1:
		return math.Nextafter(local, math.Inf(1))
	}
	if local <= 1 && rng.Intn(3) > 0 {
		return local + (1-local)*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		return math.MaxFloat64 * rng.Float64()
	}
	return min(local*(1+4*rng.Float64()), math.MaxFloat64)
}

// pickBound draws a plan bound for a component whose fleet maximum is m:
// absent, exactly m or just above it, loose, out of clause (b)'s range,
// or — wrong — below m.
func pickBound(rng *rand.Rand, m float64) float64 {
	switch rng.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return m
	case 3:
		return math.Nextafter(m, math.Inf(1))
	case 4:
		return m * (1 + rng.Float64())
	case 5:
		return max(m, UnitBound)
	case 6:
		return 2 * marginHi
	}
	return m * rng.Float64() // wrong unless m is 0
}

func TestSkybandMergeEqualsFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := &Engine{}
	// Partitions with more than k survivors, and those among them whose
	// skyband dropped rows — the prune must bite for the test to mean
	// much; and merges refused for a wrong bound.
	over, pruned, refused := 0, 0, 0
	for _, k := range []int{1, 10, 100} {
		for c := 0; c < 300; c++ {
			pools := [3][]float64{valuePool(rng, false), valuePool(rng, true), valuePool(rng, false)}
			val := func(i int) float64 { return pools[i][rng.Intn(len(pools[i]))] }
			w := Weights{Cosine: pickWeight(rng), Confidence: pickWeight(rng), Authority: pickWeight(rng)}
			withAuth := w.Authority != 0
			nParts := 1 + rng.Intn(3)
			parts := make([][][]synthRow, nParts)
			for p := range parts {
				parts[p] = make([][]synthRow, 1+rng.Intn(2))
			}
			var all [][]synthRow
			var localCos, localConf, localAuth float64
			nRows := rng.Intn(3 * k)
			if rng.Intn(2) == 0 {
				nRows = rng.Intn(300)
			}
			for r := 0; r < nRows; r++ {
				row := synthRow{url: fmt.Sprintf("http://h%d.example/%d", rng.Intn(50), r), cos: val(0), conf: val(1)}
				if withAuth {
					row.auth = val(2)
				}
				localCos, localConf, localAuth = max(localCos, row.cos), max(localConf, row.conf), max(localAuth, row.auth)
				p := rng.Intn(nParts)
				s := rng.Intn(len(parts[p]))
				parts[p][s] = append(parts[p][s], row)
			}
			for _, p := range parts {
				all = append(all, p...)
			}
			mCos, mConf, mAuth := admissible(rng, localCos), admissible(rng, localConf), admissible(rng, localAuth)
			b := Bounds{Cos: pickBound(rng, mCos), Conf: pickBound(rng, mConf), Auth: pickBound(rng, mAuth)}
			wrong := false
			for i, x := range [3]float64{w.Cosine, w.Confidence, w.Authority} {
				bound, m := [3]float64{b.Cos, b.Conf, b.Auth}[i], [3]float64{mCos, mConf, mAuth}[i]
				wrong = wrong || x != 0 && bound != 0 && bound < m
			}

			ref := synthScratch(all, w, withAuth)
			want := []Hit(nil)
			if nRows > 0 {
				e.passTwo(ref, k, mCos, mConf, mAuth)
				want = gatherHits(ref, k, mCos, mConf, mAuth)
			}

			// A remote shard that shipped no rows but holds the fleet's
			// maxima makes every admissible set reachable.
			skybands := func(b Bounds) []*Skyband {
				bands := []*Skyband{{ScoreStats: ScoreStats{MaxCos: mCos, MaxConf: mConf, MaxAuth: mAuth}}}
				for _, p := range parts {
					qs := synthScratch(p, w, withAuth)
					sb := &Skyband{}
					st := &sb.ScoreStats
					st.MaxCos, st.MaxConf, st.MaxAuth, st.Candidates, st.Survivors = reduceScatter(qs)
					if st.Survivors > 0 {
						want := bruteSkyband(qs, k, b, st)
						e.skyband(qs, k, b, st, sb)
						if len(sb.URL) != len(want) {
							t.Fatalf("k=%d case=%d w=%+v b=%+v: skyband has %d rows, by definition %d", k, c, w, b, len(sb.URL), len(want))
						}
						for _, u := range sb.URL {
							if !want[u] {
								t.Fatalf("k=%d case=%d w=%+v b=%+v: skyband ships %s, which k shipped rows surely precede", k, c, w, b, u)
							}
						}
					}
					if st.Survivors > k {
						over++
						if len(sb.URL) < st.Survivors {
							pruned++
						}
					}
					bands = append(bands, sb)
				}
				return bands
			}
			got, ok := MergeSkybands(w, b, k, skybands(b))
			label := fmt.Sprintf("k=%d case=%d w=%+v b=%+v rows=%d", k, c, w, b, nRows)
			if ok == wrong {
				t.Fatalf("%s: merge ok=%v with a wrong bound=%v", label, ok, wrong)
			}
			if !ok {
				refused++
				got, ok = MergeSkybands(w, Bounds{}, k, skybands(Bounds{}))
				if !ok {
					t.Fatalf("%s: merge without bounds refused", label)
				}
			}

			if len(got) != len(want) {
				t.Fatalf("%s: merge has %d hits, full ranking %d", label, len(got), len(want))
			}
			for i := range want {
				g, wa := got[i], want[i]
				if g.Doc.URL != wa.Doc.URL || g.Doc.Title != wa.Doc.Title || g.Doc.Topic != wa.Doc.Topic {
					t.Fatalf("%s: hit %d is %q, full ranking %q", label, i, g.Doc.URL, wa.Doc.URL)
				}
				for _, f := range [][3]any{
					{"score", g.Score, wa.Score}, {"cosine", g.Cosine, wa.Cosine},
					{"confidence", g.Confidence, wa.Confidence}, {"authority", g.Authority, wa.Authority},
				} {
					if math.Float64bits(f[1].(float64)) != math.Float64bits(f[2].(float64)) {
						t.Fatalf("%s: hit %d (%s) %s = %v, full ranking %v", label, i, g.Doc.URL, f[0], f[1], f[2])
					}
				}
			}
		}
	}
	t.Logf("%d of %d partitions with more than k survivors dropped rows; %d merges refused a wrong bound", pruned, over, refused)
	if pruned*2 < over || refused < 50 {
		t.Fatalf("only %d of %d partitions with more than k survivors dropped rows, %d merges refused — weak test", pruned, over, refused)
	}
}

// TestSurelyPrecedesIsSound checks skyRule pair by pair, where the edge
// cases are cheap to hit: whenever it says e surely precedes d, rankScore
// under random admissible maxima ranks e strictly before d; and whenever
// it says so of the aggregate of e and a second row e2, it ranks both
// before d. d is drawn from the edge-case pools and e, e2 from d's ulp
// neighbourhood and margin boundary; maxima range up to MaxFloat64, where
// normalized values underflow, and bounds are random (see pickBound).
func TestSurelyPrecedesIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	near := func(v float64) float64 {
		m := v * (1 + marginEps)
		return [...]float64{v, up(v), up(up(v)), m, down(m), up(m), 2 * v, down(v)}[rng.Intn(8)]
	}
	claims, aggClaims := 0, 0
	var pools [3][]float64
	for n := 0; n < 300000; n++ {
		if n%100 == 0 {
			pools = [3][]float64{valuePool(rng, false), valuePool(rng, true), valuePool(rng, false)}
		}
		w := Weights{Cosine: pickWeight(rng), Confidence: pickWeight(rng), Authority: pickWeight(rng)}
		withAuth := w.Authority != 0
		var d, e, e2, local, bound, m [3]float64
		for i := range d {
			d[i] = pools[i][rng.Intn(len(pools[i]))]
			e[i], e2[i] = near(d[i]), near(d[i])
			if rng.Intn(8) == 0 {
				e[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			if i == 2 { // SetAuth admits authority in [0, UnitBound]
				d[i], e[i], e2[i] = min(d[i], UnitBound), min(e[i], UnitBound), min(e2[i], UnitBound)
				if !withAuth {
					d[i], e[i], e2[i] = 0, 0, 0
				}
			}
			local[i] = admissible(rng, max(d[i], e[i], e2[i], 0))
			bound[i] = pickBound(rng, local[i])
			m[i] = admissible(rng, local[i])
			if bound[i] >= local[i] {
				m[i] = min(m[i], bound[i])
			}
		}
		rule := newSkyRule(w, Bounds{Cos: bound[0], Conf: bound[1], Auth: bound[2]},
			&ScoreStats{MaxCos: local[0], MaxConf: local[1], MaxAuth: local[2]})
		urls := []string{"http://x.example/a", "http://x.example/b", "http://x.example/c"}
		rng.Shuffle(3, func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
		row := func(x [3]float64, url string) skyRow {
			r := skyRow{x: x, url: url}
			abs := [3]float64{math.Abs(x[0]), math.Abs(x[1]), math.Abs(x[2])}
			rule.fill(&r, &abs)
			return r
		}
		rd, re := row(d, urls[0]), row(e, urls[1])
		sd := rankScore(w, d[0], d[1], d[2], m[0], m[1], m[2], withAuth)
		before := func(x [3]float64, url string) bool {
			sx := rankScore(w, x[0], x[1], x[2], m[0], m[1], m[2], withAuth)
			return sx > sd || sx == sd && url < urls[0]
		}
		if rule.surelyPrecedes(&re, &rd) {
			claims++
			if !before(e, urls[1]) {
				t.Fatalf("w=%+v e=%v (%s) d=%v (%s) local %v bounds %v maxima %v: claimed sure, but ranks after",
					w, e, urls[1], d, urls[0], local, bound, m)
			}
		}
		agg := skyRow{url: max(urls[1], urls[2])}
		var abs [3]float64
		for i := range agg.x {
			agg.x[i], abs[i] = min(e[i], e2[i]), max(math.Abs(e[i]), math.Abs(e2[i]))
		}
		rule.fill(&agg, &abs)
		if rule.surelyPrecedes(&agg, &rd) {
			aggClaims++
			if !before(e, urls[1]) || !before(e2, urls[2]) {
				t.Fatalf("w=%+v e=%v e2=%v d=%v urls %v local %v bounds %v maxima %v: aggregate claimed sure, but a row ranks after",
					w, e, e2, d, urls, local, bound, m)
			}
		}
	}
	t.Logf("%d pair claims, %d aggregate claims", claims, aggClaims)
	if claims < 10000 || aggClaims < 5000 {
		t.Fatalf("only %d pair and %d aggregate claims — weak test", claims, aggClaims)
	}
}

// TestSkybandCosineOnlyIsTopK checks clause (b) does its job: under
// cosine-only weights with distinct cosines and the coordinator's cosine
// bound, a partition ships exactly its top K however early the other rows'
// URLs sort.
func TestSkybandCosineOnlyIsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]synthRow, 500)
	for i := range rows {
		rows[i] = synthRow{url: fmt.Sprintf("http://a.example/%03d", i), cos: 0.01 + 0.98*rng.Float64(), conf: rng.Float64()}
	}
	for _, k := range []int{1, 10, 100} {
		if n := skybandRows(rows, k, DefaultWeights(), Bounds{Cos: UnitBound}); n != k {
			t.Fatalf("k=%d: shipped %d rows, want exactly %d", k, n, k)
		}
	}
}

// TestSkybandIgnoresBoundBelowLocalMax: a cosine bound below the
// partition's own largest cosine is wrong, so the partition prunes as if
// cosine were unbounded — clause (a) alone, which under URLs that sort
// against the cosines keeps far more than K rows — and the merge refuses
// the answers.
func TestSkybandIgnoresBoundBelowLocalMax(t *testing.T) {
	rows := make([]synthRow, 200)
	for i := range rows {
		rows[i] = synthRow{url: fmt.Sprintf("http://a.example/%03d", i), cos: 0.1 + 0.004*float64(i)}
	}
	const k = 10
	w := DefaultWeights()
	unbounded := skybandRows(rows, k, w, Bounds{})
	if unbounded < 5*k {
		t.Fatalf("unbounded cosine ships %d rows — weak test", unbounded)
	}
	if n := skybandRows(rows, k, w, Bounds{Cos: 0.5}); n != unbounded {
		t.Fatalf("cosine bound 0.5 below the local maximum 0.896: shipped %d rows, unbounded ships %d", n, unbounded)
	}
	if _, ok := MergeSkybands(w, Bounds{Cos: 0.5}, k, []*Skyband{{ScoreStats: ScoreStats{Survivors: 1, MaxCos: 0.896}}}); ok {
		t.Fatal("merge accepted maxima above the plan's bound")
	}
}

// skybandRows is how many of rows, as one partition of two store shards,
// the skyband ships.
func skybandRows(rows []synthRow, k int, w Weights, b Bounds) int {
	qs := synthScratch([][]synthRow{rows[:len(rows)/2], rows[len(rows)/2:]}, w, w.Authority != 0)
	sb := &Skyband{}
	st := &sb.ScoreStats
	st.MaxCos, st.MaxConf, st.MaxAuth, st.Candidates, st.Survivors = reduceScatter(qs)
	(&Engine{}).skyband(qs, k, b, st, sb)
	return len(sb.URL)
}

// TestPartitionSearchRefusesBadWeights: negative and non-finite weights
// are a typed error before any scoring.
func TestPartitionSearchRefusesBadWeights(t *testing.T) {
	p := NewPartition(store.NewSharded(1))
	for _, w := range []Weights{
		{Cosine: -1}, {Cosine: 1, Confidence: math.NaN()}, {Authority: math.Inf(1)},
	} {
		plan := countPlan("databas")
		plan.Weights = w
		if _, err := p.Search("g1", plan); err != ErrBadWeights {
			t.Fatalf("weights %+v: got %v, want ErrBadWeights", w, err)
		}
	}
}
