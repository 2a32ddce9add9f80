// This file is the search engine's distributed face: the pieces that let
// one logical scatter-gather query span shard-server processes while
// staying bit-identical to the single-process engine.
//
//   - Planner turns a Query into a Plan: stems, phrase sequences, and
//     per-term query weights computed once against an idf table — the
//     merged global one on a coordinator, the view's own in a single
//     process. Shard servers never re-derive query floats.
//
//   - Partition wraps an Engine on a shard server. Instead of deriving idf
//     locally (which would see only the local slice of the corpus), it
//     exposes its integer df stats (Stats), accepts the coordinator's
//     merged df + global document count (SetGlobal) and authority scores
//     (SetAuth), and answers the two query phases: Score (pass-1 scatter +
//     local component maxima) and Gather (pass-2 + bounded top-K under the
//     globally reduced maxima).
//
// Two phases are unavoidable for exactness: the final score of a document
// divides each component by the global maximum over all survivors, so no
// shard can pick its top-K before the maxima from every other shard are
// known. Both phases replay the same scatter over the same immutable view
// (pinned by version), so the recompute is deterministic.
package search

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/vsm"
)

// PlanTerm is one unique query term in a Plan with its precomputed
// query-side weight and document-side idf, both derived from the merged
// global idf table on the coordinator.
type PlanTerm struct {
	// Term is the stemmed query term.
	Term string `json:"t"`
	// W is the query-side tf·idf weight, (1+log(qtf))·idf(term).
	W float64 `json:"w"`
	// IDF is the document-side idf factor for the term.
	IDF float64 `json:"idf"`
}

// Plan is a fully analyzed query as shipped to shard servers: every float
// a shard needs to score documents, computed once on the coordinator in
// the global idf space. Terms are sorted lexicographically — the canonical
// accumulation order every float sum in the engine uses — and QNorm was
// summed in that same order, so replaying the plan on any shard reproduces
// the single-process arithmetic bit for bit. Go's encoding/json prints
// float64 values in shortest round-trip form, so the floats survive the
// wire exactly.
type Plan struct {
	// Terms are the unique query terms with weights, sorted by Term.
	Terms []PlanTerm `json:"terms"`
	// QNorm is the Euclidean norm of the query vector, accumulated over
	// Terms in sorted order.
	QNorm float64 `json:"qnorm"`
	// Uniq is the unique-term count — the match threshold in Exact mode.
	Uniq int `json:"uniq"`
	// Phrases holds the stem sequence of each quoted phrase.
	Phrases [][]string `json:"phrases,omitempty"`
	// Topic restricts results to a topic subtree ("" = all).
	Topic string `json:"topic,omitempty"`
	// Tenant restricts results to one portal's documents ("" = the default
	// tenant). Omitted on the wire for default-tenant queries, so a
	// pre-tenancy coordinator and shard server interoperate unchanged.
	Tenant string `json:"tenant,omitempty"`
	// Exact requires every query term to occur in a document.
	Exact bool `json:"exact,omitempty"`
	// Limit caps the result list; defaults are already applied.
	Limit int `json:"limit"`
	// Weights is the ranking combination; defaults are already applied.
	Weights Weights `json:"weights"`
}

// ScoreStats is the phase-1 result a shard server returns: its local
// candidate/survivor counts and component maxima. The coordinator reduces
// the maxima across shards (max is order-independent) and feeds the global
// values back into phase 2.
type ScoreStats struct {
	// Candidates is the number of documents any query term touched.
	Candidates int `json:"candidates"`
	// Survivors is how many candidates passed the exact/topic/phrase
	// filters.
	Survivors int `json:"survivors"`
	// MaxCos is the largest unnormalized cosine among local survivors.
	MaxCos float64 `json:"max_cos"`
	// MaxConf is the largest classifier confidence among local survivors.
	MaxConf float64 `json:"max_conf"`
	// MaxAuth is the largest authority score among local survivors.
	MaxAuth float64 `json:"max_auth"`
}

// Planner analyzes queries: it owns a text pipeline and compiles a Query
// plus an idf table into a Plan. It is safe for concurrent use.
type Planner struct {
	pipe *textproc.Pipeline
}

// NewPlanner builds a query planner.
func NewPlanner() *Planner { return &Planner{pipe: textproc.NewPipeline()} }

// Plan analyzes q against idf — the merged global table on a coordinator.
// ok is false when no indexable stems remain — the result is the empty list
// and nothing needs to reach a shard.
func (pl *Planner) Plan(q Query, idf *vsm.IDFTable) (plan *Plan, ok bool) {
	plan, qtf := pl.analyze(q)
	if plan == nil {
		return nil, false
	}
	plan.weigh(qtf, idf)
	return plan, true
}

// analyze is the idf-independent half of Plan: stems, phrase sequences and
// the Limit/Weights defaults, plus the query-side term frequencies weigh
// needs. It is split out so the single-process engine can reject an empty
// query before it materializes the view that holds its idf table. plan is
// nil when no indexable stems remain.
func (pl *Planner) analyze(q Query) (plan *Plan, qtf map[string]int) {
	freeText, phrases := splitPhrases(q.Text)
	stems := pl.pipe.Stems(freeText)
	var phraseStems [][]string
	for _, ph := range phrases {
		ps := pl.pipe.Stems(ph)
		if len(ps) > 0 {
			phraseStems = append(phraseStems, ps)
			stems = append(stems, ps...) // phrase terms also rank
		}
	}
	if len(stems) == 0 {
		return nil, nil
	}
	qtf = make(map[string]int, len(stems))
	for _, s := range stems {
		qtf[s]++
	}
	if q.Limit <= 0 {
		q.Limit = 10
	}
	if q.Weights == (Weights{}) {
		q.Weights = DefaultWeights()
	}
	return &Plan{
		Uniq:    len(qtf),
		Phrases: phraseStems,
		Topic:   q.Topic,
		Tenant:  q.Tenant,
		Exact:   q.Exact,
		Limit:   q.Limit,
		Weights: q.Weights,
	}, qtf
}

// weigh fills in the idf-dependent half of an analyzed plan: per-term
// weights, sorted by term so every accumulation that iterates them — QNorm
// here, the per-document dot products in the scatter — has one deterministic
// float order no matter how qtf iterates.
func (plan *Plan) weigh(qtf map[string]int, idf *vsm.IDFTable) {
	plan.Terms = make([]PlanTerm, 0, len(qtf))
	for term, tf := range qtf {
		plan.Terms = append(plan.Terms, PlanTerm{
			Term: term,
			W:    idf.TermWeight(term, tf),
			IDF:  idf.IDF(term),
		})
	}
	sortQTerms(plan.Terms)
	var qnorm float64
	for i := range plan.Terms {
		qnorm += plan.Terms[i].W * plan.Terms[i].W
	}
	plan.QNorm = math.Sqrt(qnorm)
}

// PartitionStats is a shard server's contribution to the global corpus
// statistics: its per-shard epoch vector, live document count, and
// shard-local vocabulary with integer document frequencies (parallel
// slices, sorted by term). Summing the df integers across servers gives
// the exact global df — the same merge rebuildView performs across local
// shards.
type PartitionStats struct {
	// Pin identifies the snapshot this Stats call pinned; SetGlobal must
	// echo it, so a push can never install a view over a different pin than
	// the one whose df the coordinator merged (two coordinators interleaving
	// Stats calls would otherwise cross wires silently).
	Pin string `json:"pin"`
	// Epochs is the per-shard epoch vector the stats were pinned at.
	Epochs []int64 `json:"epochs"`
	// NumDocs is the partition's live document count.
	NumDocs int `json:"num_docs"`
	// Terms is the partition vocabulary, sorted.
	Terms []string `json:"terms"`
	// DF holds the local document frequency of Terms[i].
	DF []int `json:"df"`
}

// ErrNoStats is returned by SetGlobal when no preceding Stats call pinned
// a snapshot to build the view from.
var ErrNoStats = errors.New("search: SetGlobal without a pinned Stats snapshot")

// ErrPinMismatch is returned by SetGlobal when the echoed pin token does
// not identify the currently pinned snapshot — a newer Stats call (this
// coordinator's or another's) replaced the snapshot the push was built
// from. The caller must re-pull Stats and push again.
var ErrPinMismatch = errors.New("search: SetGlobal pin does not match the pinned Stats snapshot")

// ErrAuthNotReady is returned by Score/Gather for an authority-weighted
// plan when the coordinator has not pushed authority scores for the view
// version yet.
var ErrAuthNotReady = errors.New("search: authority scores not pushed for this version")

// VersionError reports a query phase addressed at a global-stats version
// this partition no longer (or not yet) serves. The coordinator reacts by
// re-running its stats sync and retrying once.
type VersionError struct {
	// Want is the version the request addressed.
	Want string
	// Have is the partition's current version ("" if none installed).
	Have string
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("search: no view for global-stats version %q (current %q)", e.Want, e.Have)
}

// pinnedStats is the snapshot set a Stats call materialized, held so the
// following SetGlobal builds its view over exactly the shard states whose
// df the coordinator merged — a concurrent crawl flush between the two
// calls cannot skew the view newer than its advertised stats. pin is the
// token the Stats call returned; SetGlobal must echo it.
type pinnedStats struct {
	pin     string
	snaps   []*shardSnap
	epochs  []int64
	numDocs int
}

// partView is one installed global-stats generation: an immutable search
// view built under the coordinator's merged idf, keyed by the
// coordinator-assigned version string. pin and totalDocs record what the
// view was built from, so a same-version push is treated as a duplicate
// only when it demonstrably is one. authReady flips once authority scores
// for the version have been pushed.
type partView struct {
	version   string
	pin       string
	totalDocs int
	view      *searchView
	authReady atomic.Bool
}

// Partition serves one store partition inside a shard server. It reuses
// the Engine's snapshot, scatter, and heap machinery, but the global layer
// (idf, authority) is pushed in by the coordinator instead of derived
// locally, and views are pinned by version so the two query phases — and
// every shard participating in one query — score against the same state.
// The current and previous versions stay queryable, so a stats push never
// breaks queries already in flight under the old version.
type Partition struct {
	eng *Engine

	mu     sync.Mutex // serializes Stats/SetGlobal and guards pend
	pend   *pinnedStats
	pinSeq int64 // pin-token counter; guarded by mu

	cur  atomic.Pointer[partView]
	prev atomic.Pointer[partView]
}

// NewPartition builds a partition server over st.
func NewPartition(st *store.Store) *Partition {
	return &Partition{eng: New(st)}
}

// Store returns the underlying store partition.
func (p *Partition) Store() *store.Store { return p.eng.store }

// Version returns the currently installed global-stats version ("" before
// the first SetGlobal).
func (p *Partition) Version() string {
	if pv := p.cur.Load(); pv != nil {
		return pv.version
	}
	return ""
}

// Stats pins a snapshot of the partition at its current epochs and returns
// the local vocabulary and integer document frequencies, keyed by a fresh
// pin token the following SetGlobal must echo. Shard snaps whose epoch is
// unchanged are reused from the installed view or the previous pin (the
// dirty-shard economy of currentSnaps), so a stats sync after localized
// writes rematerializes only what changed.
func (p *Partition) Stats() PartitionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cur, pend []*shardSnap
	if pv := p.cur.Load(); pv != nil {
		cur = pv.view.shards
	}
	if p.pend != nil {
		pend = p.pend.snaps
	}
	snaps := currentSnaps(p.eng.store, cur, pend)
	df, numDocs := mergeDocFreq(snaps)
	epochs := make([]int64, len(snaps))
	for i := range snaps {
		epochs[i] = snaps[i].epoch
	}
	p.pinSeq++
	pin := fmt.Sprintf("pin%d", p.pinSeq)
	p.pend = &pinnedStats{pin: pin, snaps: snaps, epochs: epochs, numDocs: numDocs}

	terms := make([]string, 0, len(df))
	for t := range df {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	dfs := make([]int, len(terms))
	for i, t := range terms {
		dfs[i] = df[t]
	}
	return PartitionStats{Pin: pin, Epochs: epochs, NumDocs: numDocs, Terms: terms, DF: dfs}
}

// SetGlobal installs the coordinator's merged corpus statistics: the
// global document count and the merged df restricted to this partition's
// vocabulary. pin must echo the token the pinning Stats call returned —
// the view is built over exactly those snaps, under idf = log(1+N/df)
// from the pushed integers — the identical table a single process computes
// from the same corpus, so norms and every downstream float match bit for
// bit. The previous version remains servable for in-flight queries.
//
// A push whose version matches the installed view is a duplicate only
// when its pin and totalDocs match too; a colliding version string from a
// different coordinator incarnation (same "gN", different corpus state)
// is installed, not swallowed — silently keeping the stale view would
// serve queries missing every document ingested since the original sync.
func (p *Partition) SetGlobal(version, pin string, totalDocs int, terms []string, df []int) error {
	if len(terms) != len(df) {
		return errors.New("search: SetGlobal terms/df length mismatch")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cv := p.cur.Load(); cv != nil && cv.version == version &&
		cv.pin == pin && cv.totalDocs == totalDocs {
		return nil // duplicate push (coordinator retry) — already installed
	}
	if p.pend == nil {
		return ErrNoStats
	}
	if pin != p.pend.pin {
		return ErrPinMismatch
	}
	m := make(map[string]int, len(terms))
	for i, t := range terms {
		m[t] = df[i]
	}
	v := finishView(p.pend.snaps, vsm.TableFromDocFreq(m, totalDocs), p.pend.numDocs)
	pv := &partView{version: version, pin: pin, totalDocs: totalDocs, view: v}
	p.prev.Store(p.cur.Load())
	p.cur.Store(pv)
	return nil
}

// SetAuth installs the coordinator's globally computed HITS authority
// scores for the given version. Queries weighting authority are refused
// (ErrAuthNotReady) until this has happened — a partition never falls back
// to link analysis over its local subgraph, which would silently diverge
// from the global ranking.
func (p *Partition) SetAuth(version string, urls []string, scores []float64) error {
	if len(urls) != len(scores) {
		return errors.New("search: SetAuth urls/scores length mismatch")
	}
	pv, err := p.viewFor(version)
	if err != nil {
		return err
	}
	byURL := make(map[string]float64, len(urls))
	for i, u := range urls {
		byURL[u] = scores[i]
	}
	pv.view.authOnce.Do(func() { pv.view.setAuthority(byURL) })
	pv.authReady.Store(true)
	return nil
}

// Score runs phase 1 of a distributed query: scatter the plan over the
// local shards of the version's pinned view and return the local component
// maxima and counts. No ranking happens here — the maxima must first be
// reduced globally.
func (p *Partition) Score(version string, plan *Plan) (ScoreStats, error) {
	_, qs, err := p.beginPhase(version, plan)
	if err != nil {
		return ScoreStats{}, err
	}
	defer p.eng.putScratch(qs)
	p.eng.scatterAll(qs)
	maxCos, maxConf, maxAuth, cand, surv := reduceScatter(qs)
	return ScoreStats{
		Candidates: cand,
		Survivors:  surv,
		MaxCos:     maxCos,
		MaxConf:    maxConf,
		MaxAuth:    maxAuth,
	}, nil
}

// Gather runs phase 2: replay the scatter on the same pinned view, then
// pass-2 and bounded top-K selection under the globally reduced maxima,
// returning this partition's best `plan.Limit` hits with components
// normalized by the global maxima — ready for the coordinator's final
// order-independent merge under the score/URL tie-break.
func (p *Partition) Gather(version string, plan *Plan, maxCos, maxConf, maxAuth float64) ([]Hit, error) {
	_, qs, err := p.beginPhase(version, plan)
	if err != nil {
		return nil, err
	}
	defer p.eng.putScratch(qs)
	p.eng.scatterAll(qs)
	if _, _, _, _, survivors := reduceScatter(qs); survivors == 0 {
		return nil, nil
	}
	p.eng.passTwo(qs, qs.q.Limit, maxCos, maxConf, maxAuth)
	return gatherHits(qs, qs.q.Limit, maxCos, maxConf, maxAuth), nil
}

// beginPhase resolves the version's view, checks authority readiness, and
// parks the plan in a pooled scratch — the shared preamble of Score and
// Gather.
func (p *Partition) beginPhase(version string, plan *Plan) (*partView, *scoreScratch, error) {
	pv, err := p.viewFor(version)
	if err != nil {
		return nil, nil, err
	}
	var auth [][]float64
	if plan.Weights.Authority != 0 {
		if !pv.authReady.Load() {
			return nil, nil, ErrAuthNotReady
		}
		auth = pv.view.auth
	}
	qs := p.eng.getScratch(pv.view)
	fillPlan(qs, plan, auth)
	return pv, qs, nil
}

// fillPlan parks a plan in the scratch as the scatter's inputs. The terms
// are re-sorted defensively — sorted input is the wire contract, and on
// already-sorted input the insertion sort is a no-op pass.
func fillPlan(qs *scoreScratch, plan *Plan, auth [][]float64) {
	qs.qterms = append(qs.qterms, plan.Terms...)
	sortQTerms(qs.qterms)
	limit := plan.Limit
	if limit <= 0 {
		limit = 10
	}
	qs.q = Query{Topic: plan.Topic, Tenant: plan.Tenant, Exact: plan.Exact, Weights: plan.Weights, Limit: limit}
	qs.phrases = plan.Phrases
	qs.uniqCount = plan.Uniq
	qs.qnorm = plan.QNorm
	qs.auth = auth
}

// viewFor resolves a global-stats version to its installed view, accepting
// the current and the immediately previous version.
func (p *Partition) viewFor(version string) (*partView, error) {
	if pv := p.cur.Load(); pv != nil && pv.version == version {
		return pv, nil
	}
	if pv := p.prev.Load(); pv != nil && pv.version == version {
		return pv, nil
	}
	have := ""
	if pv := p.cur.Load(); pv != nil {
		have = pv.version
	}
	return nil, &VersionError{Want: version, Have: have}
}
