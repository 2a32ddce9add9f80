// This file is the one-round-trip query protocol: Partition.Search answers
// a distributed query in a single call per shard, and MergeSkybands ranks
// the answers on the coordinator.
//
// The final score divides each component by its maximum over every
// survivor in the fleet (§3.6), so no shard can pick its top-K before the
// global maxima are known. It does not have to. A shard ships its local
// maxima plus every survivor that fewer than K other shipped rows are sure
// to beat under any maxima the fleet could reduce to — the tie-aware
// K-skyband (Papadias, Tao, Fu and Seeger, "Progressive skyline
// computation in database systems", SIGMOD 2003). The coordinator folds
// the maxima, scores every shipped row with rankScore — the function
// passTwo calls — and sorts. A dropped row had K shipped rows ranking
// strictly before it, so it cannot be in the global top-K, and the result
// is bit-identical to the single-process ranking.
package search

import (
	"errors"
	"math"
	"slices"
	"sort"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// mSkybandRows is the number of rows each Partition.Search ships — K under
// cosine-only weights up to exact ties at the K-th score; a few times K
// when confidence or authority is weighted (see skyRule).
var mSkybandRows = metrics.NewHistogram("search_skyband_rows")

// ErrBadWeights refuses a plan whose ranking weights are negative or not
// finite: the skyband (and any sane ranking) needs a score that is
// monotone in each component.
var ErrBadWeights = errors.New("search: ranking weights must be finite and non-negative")

// Validate reports ErrBadWeights unless every weight is finite and ≥ 0.
func (w Weights) Validate() error {
	for _, x := range [...]float64{w.Cosine, w.Confidence, w.Authority} {
		if !(x >= 0) || math.IsInf(x, 1) {
			return ErrBadWeights
		}
	}
	return nil
}

// Skyband is a partition's whole answer to one query: its candidate and
// survivor counts and local component maxima (the same ScoreStats the
// two-phase Score returns), plus its tie-aware K-skyband in column form —
// row j is URL[j], Title[j], Topic[j] with raw, unnormalized components
// Cos[j], Conf[j] and Auth[j]. Auth is empty unless the plan weights
// authority.
type Skyband struct {
	ScoreStats
	URL   []string  `json:"url"`
	Title []string  `json:"title"`
	Topic []string  `json:"topic"`
	Cos   []float64 `json:"cos"`
	Conf  []float64 `json:"conf"`
	Auth  []float64 `json:"auth,omitempty"`
}

// rankScore is the §3.6 score of one row: each component divided by its
// maximum (when that is positive), weighted and summed. passTwo and
// MergeSkybands both call it, so the single-process engine and the
// coordinator run the same float operations in the same order and agree
// bit for bit. withAuth is false when the plan carries no authority
// scores; auth is then ignored. A zero-weight confidence term is skipped:
// a negative confidence over a tiny maximum overflows to −∞, and 0·∞ would
// make the score NaN.
func rankScore(w Weights, cos, conf, auth, maxCos, maxConf, maxAuth float64, withAuth bool) float64 {
	if maxCos > 0 {
		cos /= maxCos
	}
	score := w.Cosine * cos
	if w.Confidence != 0 {
		if maxConf > 0 {
			conf /= maxConf
		}
		score += w.Confidence * conf
	}
	if withAuth && maxAuth > 0 {
		score += w.Authority * auth / maxAuth
	}
	return score
}

// normComponents returns a hit's reported components: each raw component
// divided by its maximum when that is positive, and authority zero when
// the plan carries none.
func normComponents(cos, conf, auth, maxCos, maxConf, maxAuth float64, withAuth bool) (float64, float64, float64) {
	if maxCos > 0 {
		cos /= maxCos
	}
	if maxConf > 0 {
		conf /= maxConf
	}
	if !withAuth {
		auth = 0
	} else if maxAuth > 0 {
		auth /= maxAuth
	}
	return cos, conf, auth
}

// Search answers a distributed query in one round trip: one scatter over
// the version's pinned view, the local maxima and counts, and the local
// tie-aware K-skyband with K = plan.Limit (see skyband).
func (p *Partition) Search(version string, plan *Plan) (*Skyband, error) {
	if err := plan.Weights.Validate(); err != nil {
		return nil, err
	}
	_, qs, err := p.beginPhase(version, plan)
	if err != nil {
		return nil, err
	}
	defer p.eng.putScratch(qs)
	p.eng.scatterAll(qs)
	out := &Skyband{}
	st := &out.ScoreStats
	st.MaxCos, st.MaxConf, st.MaxAuth, st.Candidates, st.Survivors = reduceScatter(qs)
	if st.Survivors > 0 {
		p.eng.skyband(qs, qs.q.Limit, plan.Bounds, st, out)
	}
	return out, nil
}

// Bounds caps the fleet-wide component maxima — the largest cosine,
// confidence and authority among the query's survivors on every shard —
// that shards may assume when they prune their skybands (skyRule's clause
// (b)). Zero leaves a component unbounded. The coordinator sets Cos to
// UnitBound, Conf to the largest confidence in its synced stats and Auth to
// the largest authority score it pushed; MergeSkybands checks them against
// the maxima the shards report, so a wrong bound costs a second round
// trip, never a wrong answer.
type Bounds struct {
	Cos  float64 `json:"cos,omitempty"`
	Conf float64 `json:"conf,omitempty"`
	Auth float64 `json:"auth,omitempty"`
}

// UnitBound bounds every cosine — 1 by Cauchy–Schwarz, plus room for the
// rounding of the accumulated dot product and norms — and every authority
// score, which SetAuth enforces.
const UnitBound = 1 + 0x1p-40

// within reports whether a component of weight w and fleet maximum m
// respects bound.
func within(w, m, bound float64) bool { return w == 0 || bound == 0 || m <= bound }

// MergeSkybands ranks the union of partition answers exactly as one
// process holding every partition would: fold the maxima (max is
// order-independent), score every shipped row with rankScore, normalize
// the components as gatherHits does, sort by score descending then URL
// ascending, and keep limit hits. A hit's Doc holds URL, Title and Topic
// only. It reports false, and no hits, when a folded maximum of a weighted
// component exceeds its bound in b: the partitions pruned under a false
// premise, and the caller must ask again with zero Bounds.
func MergeSkybands(w Weights, b Bounds, limit int, parts []*Skyband) ([]Hit, bool) {
	var maxCos, maxConf, maxAuth float64
	survivors, rows := 0, 0
	for _, p := range parts {
		survivors += p.Survivors
		rows += len(p.URL)
		if p.MaxCos > maxCos {
			maxCos = p.MaxCos
		}
		if p.MaxConf > maxConf {
			maxConf = p.MaxConf
		}
		if p.MaxAuth > maxAuth {
			maxAuth = p.MaxAuth
		}
	}
	if !within(w.Cosine, maxCos, b.Cos) || !within(w.Confidence, maxConf, b.Conf) || !within(w.Authority, maxAuth, b.Auth) {
		return nil, false
	}
	if survivors == 0 {
		return nil, true
	}
	withAuth := w.Authority != 0
	hits := make([]Hit, 0, rows)
	for _, p := range parts {
		for j := range p.URL {
			var a float64
			if withAuth {
				a = p.Auth[j]
			}
			h := Hit{
				Doc:   store.Document{URL: p.URL[j], Title: p.Title[j], Topic: p.Topic[j]},
				Score: rankScore(w, p.Cos[j], p.Conf[j], a, maxCos, maxConf, maxAuth, withAuth),
			}
			h.Cosine, h.Confidence, h.Authority = normComponents(p.Cos[j], p.Conf[j], a, maxCos, maxConf, maxAuth, withAuth)
			hits = append(hits, h)
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Doc.URL < hits[b].Doc.URL
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits, true
}

// Limits of skyRule's clause (b).
const (
	// marginLo and marginHi bound every non-zero weight clause (b) admits,
	// and every bound it uses.
	marginLo = 0x1p-64
	marginHi = 0x1p64
	// marginEps is clause (b)'s margin relative to the magnitudes involved:
	// 2⁻⁴⁰, far above the few units of 2⁻⁵³ that rounding can move a score
	// or the test itself.
	marginEps = 0x1p-40
	// marginAbs absorbs the absolute error of underflowed operations.
	marginAbs = 0x1p-1000
	// marginSize caps the magnitudes clause (b) reasons about, so that
	// nothing in it or in rankScore overflows.
	marginSize = 0x1p900
)

// skyRule decides, for one plan on one partition, whether a row e surely
// precedes a row d: ranks strictly before d (higher score, or equal score
// and smaller URL) for every admissible set of global maxima. Admissible
// maxima M_i are at least the partition's local maxima m_i — the fleet's
// maximum includes this partition's — and, for a component the plan
// bounds, at most its bound B_i. Let W be the components with a non-zero
// weight. If every weight is at most 2⁶⁴, e surely precedes d when
//
//	(a) e ≥ d on every component in W and URL(e) < URL(d); or
//	(b) every non-zero weight lies in [2⁻⁶⁴, 2⁶⁴] and e beats d by a
//	    margin. With lo_i = 1/B_i (0 for an unbounded component) and
//	    hi_i = 1/m_i, each row x carries x̲_i = w_i·x_i·lo_i,
//	    x̄_i = w_i·x_i·hi_i and A_x = Σ_{i∈W} w_i·|x_i|·hi_i (a term of
//	    x_i = 0 counts 0), and
//	      p = Σ_{i∈W, e_i>d_i} (e̲_i − d̲_i)
//	      n = Σ_{i∈W, e_i<d_i} (d̄_i − ē_i)
//	    satisfy, with a = A_e + A_d, a ≤ 2⁹⁰⁰ and
//	    p > n + a·2⁻⁴⁰ + 2⁻¹⁰⁰⁰, all computed in floating point.
//
// A heavier weight makes nothing sure, and the partition ships every
// survivor: it could turn a term into +∞, and the −∞ of a negative
// confidence over a tiny maximum into a NaN score.
//
// Proof of (a). With weights in [0, 2⁶⁴], rankScore is monotone
// non-decreasing in each component: a division by the same positive
// maximum, a product with the same non-negative weight and a sum are each
// monotone under round-to-nearest. No term is +∞ — the cosine and
// authority terms are at most about w, as x ≤ M, and so is a positive
// confidence term — and a zero-weight cosine term is +0 while a
// zero-weight confidence term is skipped, so a −∞ confidence term never
// meets +∞ or 0 and no NaN arises. So S(e) ≥ S(d) for any maxima, and a
// tie goes to the smaller URL.
//
// Proof of (b). Let u = 2⁻⁵³ and γ_k = k·u/(1−k·u). A component with
// e_i = d_i = 0 adds exactly +0 to both scores and to p, n and a. Any
// other W-component has hi_i finite, since a is, so m_i > 0 and
// M_i ≥ m_i: rankScore divides by M_i, and |x_i|/M_i ≤ |x_i|·hi_i. So
// every term w_i·x_i/M_i is at most a ≤ 2⁹⁰⁰ in magnitude, every
// quotient |x_i|/M_i at most a/w_i ≤ 2⁹⁶⁴, and the authority product
// w_a·x_a at most 2⁶⁵ (SetAuth admits scores in [0, UnitBound]): nothing
// overflows. rankScore rounds at most twice per term and twice in the sum,
// so |fl S(x) − S(x)| ≤ γ₄·Σ w_i·|x_i|/M_i + 2⁻¹⁰⁷⁰ ≤ γ₄·A*_x + 2⁻¹⁰⁷⁰,
// where S is the exact score, A* the exact A, and 2⁻¹⁰⁷⁰ covers operations
// that underflow. In exact arithmetic S(e) − S(d) = Σ w_i·(e_i−d_i)/M_i
// is linear in each 1/M_i ∈ [1/B_i, 1/m_i], so it is at least P* − N*,
// the exact p and n. Each x̲_i, x̄_i is within γ₃ of its exact value (1/B_i
// or 1/m_i and two products), and p and n add at most three differences,
// so |p − P*| and |n − N*| are each at most γ₆·(A*_e + A*_d) + 2⁻¹⁰⁶⁰ (as
// lo_i ≤ hi_i); likewise a ≥ (A*_e + A*_d)(1 − γ₆) − 2⁻¹⁰⁶⁰. Hence
// P* − N* > (A*_e + A*_d)(2⁻⁴⁰(1 − γ₆) − 2γ₆) + 2⁻¹⁰⁰¹ >
// γ₄·(A*_e + A*_d) + 2⁻¹⁰⁶⁹, and fl S(e) > fl S(d).
//
// Aggregates. Clause (a) only asks e to be large and its URL small, and
// P* − N* is non-decreasing in each e_i. So e may also be an aggregate
// over a set of rows — componentwise minimum, with A taken over the
// componentwise maximum magnitude and the largest URL — and a true answer
// then holds for every row of the set.
type skyRule struct {
	on     [3]bool    // W: cos, conf, auth with a non-zero weight
	w      [3]float64 // the weights
	sound  bool       // every weight at most 2⁶⁴
	margin bool       // clause (b) admissible for the plan
	lo, hi [3]float64 // 1/B_i (0 when unbounded) and 1/m_i
}

func newSkyRule(w Weights, b Bounds, local *ScoreStats) skyRule {
	r := skyRule{w: [3]float64{w.Cosine, w.Confidence, w.Authority}, sound: true, margin: true}
	bound := [3]float64{b.Cos, b.Conf, b.Auth}
	m := [3]float64{local.MaxCos, local.MaxConf, local.MaxAuth}
	bounded := false
	for i, x := range r.w {
		if x == 0 {
			continue
		}
		r.on[i] = true
		r.sound = r.sound && x <= marginHi
		r.margin = r.margin && x >= marginLo
		r.hi[i] = 1 / m[i]
		// A bound below the local maximum is wrong; MergeSkybands sees it
		// too and the coordinator asks again without bounds.
		if bound[i] >= m[i] && bound[i] <= marginHi {
			r.lo[i] = 1 / bound[i]
			bounded = true
		}
	}
	r.margin = r.margin && bounded
	return r
}

// skyRow is one row as skyRule reads it: raw components, URL, and clause
// (b)'s scaled components x̲, x̄ and magnitude A.
type skyRow struct {
	x      [3]float64
	lo, hi [3]float64
	a      float64
	url    string
}

// fill prepares s, whose x and url are set, for comparisons; abs is |x|,
// or the componentwise maximum magnitude when s is an aggregate.
func (r *skyRule) fill(s *skyRow, abs *[3]float64) {
	s.lo, s.hi, s.a = [3]float64{}, [3]float64{}, 0
	for i, x := range s.x {
		if !r.on[i] {
			continue
		}
		if x != 0 {
			s.lo[i] = r.w[i] * (x * r.lo[i])
			s.hi[i] = r.w[i] * (x * r.hi[i])
		}
		if abs[i] != 0 {
			s.a += r.w[i] * (abs[i] * r.hi[i])
		}
	}
}

// surelyPrecedes reports whether e surely precedes d. Clause (b) is tried
// first: it settles most pairs without comparing URLs.
func (r *skyRule) surelyPrecedes(e, d *skyRow) bool {
	if !r.sound {
		return false
	}
	if r.margin && r.beatsByMargin(e, d) {
		return true
	}
	for i := range e.x {
		if r.on[i] && e.x[i] < d.x[i] {
			return false
		}
	}
	return e.url < d.url
}

// beatsByMargin is clause (b) for a plan where it is admissible. Scaled
// components of a component outside W are 0. An infinite a — from a
// component whose local maximum is not positive, or from an overflow —
// fails the test.
func (r *skyRule) beatsByMargin(e, d *skyRow) bool {
	a := e.a + d.a
	if !(a <= marginSize) {
		return false
	}
	var p, n float64
	for i := range e.x {
		if e.x[i] > d.x[i] {
			p += e.lo[i] - d.lo[i]
		} else if e.x[i] < d.x[i] {
			n += d.hi[i] - e.hi[i]
		}
	}
	return p > n+a*marginEps+marginAbs
}

// comps returns a candidate's raw components: cosine, confidence and
// authority (zero when the plan carries none).
func (qs *scoreScratch) comps(en topEntry) [3]float64 {
	x := [3]float64{qs.shards[en.si].acc[en.seq], qs.view.shards[en.si].docs[en.seq].Confidence, 0}
	if qs.auth != nil {
		x[2] = qs.auth[en.si][en.seq]
	}
	return x
}

func (qs *scoreScratch) url(en topEntry) string { return qs.view.shards[en.si].docs[en.seq].URL }

// skyRow prepares candidate en as s for rule.
func (qs *scoreScratch) skyRow(rule *skyRule, en topEntry, s *skyRow) {
	s.x, s.url = qs.comps(en), qs.url(en)
	abs := [3]float64{math.Abs(s.x[0]), math.Abs(s.x[1]), math.Abs(s.x[2])}
	rule.fill(s, &abs)
}

// skyband appends the scattered survivors' tie-aware K-skyband to out, in
// about the cost of one Gather:
//
//  1. T = the top k under the local maxima m — passTwo as if this
//     partition held the whole fleet — merged across the partition's
//     store shards. T is always shipped.
//  2. Every other survivor is tested against T's aggregate (componentwise
//     minimum, maximum magnitude, largest URL), then against each row of
//     T; one that all of T surely precedes is dropped.
//  3. The remainder, best first under m, counts the shipped rows that
//     surely precede it, stopping at k, and is shipped if it stays below
//     k.
//
// A dropped row has k shipped rows that rank before it under the fleet's
// maxima, so the shipped rows hold every row of the global top-k: the scan
// order only decides how much is pruned.
func (e *Engine) skyband(qs *scoreScratch, k int, b Bounds, local *ScoreStats, out *Skyband) {
	e.passTwo(qs, k, local.MaxCos, local.MaxConf, local.MaxAuth)
	qs.mergeHeaps(k)
	if len(qs.merged) == k {
		rule := newSkyRule(qs.q.Weights, b, local)
		var agg, d skyRow
		var hi [3]float64
		qs.sky = slices.Grow(qs.sky, k)[:k]
		for j, en := range qs.merged {
			r := &qs.sky[j]
			qs.skyRow(&rule, en, r)
			for i := range hi {
				if j == 0 {
					agg.x[i] = r.x[i]
				}
				agg.x[i], hi[i] = min(agg.x[i], r.x[i]), max(hi[i], math.Abs(r.x[i]))
			}
			agg.url = max(agg.url, r.url)
			// Mark T's rows as taken, so the sweep below skips them;
			// putScratch resets matched for every candidate.
			qs.shards[en.si].matched[en.seq] = -1
		}
		rule.fill(&agg, &hi)
		w := qs.q.Weights
		for _, sc := range qs.shards {
			for _, i := range sc.cand {
				if sc.matched[i] < 0 {
					continue
				}
				en := topEntry{si: int32(sc.shard), seq: int32(i)}
				qs.skyRow(&rule, en, &d)
				if rule.surelyPrecedes(&agg, &d) || allPrecede(&rule, qs.sky, &d) {
					continue
				}
				en.score = rankScore(w, d.x[0], d.x[1], d.x[2], local.MaxCos, local.MaxConf, local.MaxAuth, qs.auth != nil)
				qs.rest = append(qs.rest, en)
			}
		}
		slices.SortFunc(qs.rest, func(a, b topEntry) int {
			if qs.worse(b, a) {
				return -1
			}
			return 1
		})
		for _, en := range qs.rest {
			qs.skyRow(&rule, en, &d)
			beaten := 0
			for j := range qs.sky {
				if rule.surelyPrecedes(&qs.sky[j], &d) {
					if beaten++; beaten == k {
						break
					}
				}
			}
			if beaten < k {
				qs.merged = append(qs.merged, en)
				qs.sky = append(qs.sky, d)
			}
		}
	}
	mSkybandRows.Observe(int64(len(qs.merged)))
	n := len(qs.merged)
	out.URL, out.Title, out.Topic = make([]string, n), make([]string, n), make([]string, n)
	out.Cos, out.Conf = make([]float64, n), make([]float64, n)
	if qs.auth != nil {
		out.Auth = make([]float64, n)
	}
	for j, en := range qs.merged {
		doc := &qs.view.shards[en.si].docs[en.seq]
		x := qs.comps(en)
		out.URL[j], out.Title[j], out.Topic[j] = doc.URL, doc.Title, doc.Topic
		out.Cos[j], out.Conf[j] = x[0], x[1]
		if out.Auth != nil {
			out.Auth[j] = x[2]
		}
	}
}

// allPrecede reports whether every row of rows surely precedes d.
func allPrecede(rule *skyRule, rows []skyRow, d *skyRow) bool {
	for j := range rows {
		if !rule.surelyPrecedes(&rows[j], d) {
			return false
		}
	}
	return true
}
