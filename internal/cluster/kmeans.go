// Package cluster implements the result-postprocessing cluster analysis of
// §3.6: K-means over sparse document vectors with cosine-style (unit-norm
// Euclidean) distance, tentative cluster labels drawn from the most
// characteristic centroid terms, and an entropy-based impurity measure used
// to choose the number of clusters automatically.
package cluster

import (
	"math"
	"math/rand"

	"github.com/bingo-search/bingo/internal/vsm"
)

// Result describes one clustering.
type Result struct {
	// Assign maps each input document index to a cluster in [0,K).
	Assign []int
	// Centroids are the cluster mean vectors (unit-normalized).
	Centroids []vsm.Vector
	// Labels are tentative names: the top centroid terms per cluster.
	Labels [][]string
	// Impurity is the entropy-based impurity of the clustering.
	Impurity float64
	// Iterations is the number of reassignment rounds performed.
	Iterations int
}

// Options controls KMeans.
type Options struct {
	K        int
	MaxIter  int   // default 50
	Seed     int64 // deterministic seeding
	LabelLen int   // terms per label, default 5
}

// KMeans clusters docs into opts.K groups. Vectors are unit-normalized
// internally, making squared Euclidean distance equivalent to cosine
// dissimilarity. Empty input or K <= 0 yields an empty result; K larger
// than len(docs) is clamped.
func KMeans(docs []vsm.Vector, opts Options) Result {
	n := len(docs)
	if n == 0 || opts.K <= 0 {
		return Result{}
	}
	k := opts.K
	if k > n {
		k = n
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.LabelLen <= 0 {
		opts.LabelLen = 5
	}
	normed := make([]vsm.Vector, n)
	for i, d := range docs {
		normed[i] = d.Copy().Normalize()
	}

	// k-means++-style seeding for stability: first centroid random, each
	// further centroid the point farthest from its nearest centroid.
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	centroids := make([]vsm.Vector, 0, k)
	centroids = append(centroids, normed[rng.Intn(n)].Copy())
	for len(centroids) < k {
		bestIdx, bestDist := 0, -1.0
		for i, v := range normed {
			d := nearestDist(v, centroids)
			if d > bestDist {
				bestDist, bestIdx = d, i
			}
		}
		centroids = append(centroids, normed[bestIdx].Copy())
	}

	assign := make([]int, n)
	iters := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		changed := false
		for i, v := range normed {
			best, bestSim := 0, math.Inf(-1)
			for c, cent := range centroids {
				sim := v.Dot(cent)
				if sim > bestSim {
					bestSim, best = sim, c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// recompute centroids
		sums := make([]vsm.Vector, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = vsm.Vector{}
		}
		for i, v := range normed {
			sums[assign[i]].Add(v, 1)
			counts[assign[i]]++
		}
		for c := range sums {
			if counts[c] == 0 {
				// re-seed an empty cluster with the globally farthest point
				far, farDist := 0, -1.0
				for i, v := range normed {
					d := nearestDist(v, centroids)
					if d > farDist {
						farDist, far = d, i
					}
				}
				sums[c] = normed[far].Copy()
			}
			centroids[c] = sums[c].Normalize()
		}
		if !changed && iter > 0 {
			break
		}
	}

	labels := make([][]string, k)
	for c := range centroids {
		labels[c] = centroids[c].Top(opts.LabelLen)
	}
	return Result{
		Assign:     assign,
		Centroids:  centroids,
		Labels:     labels,
		Impurity:   Impurity(normed, assign, k),
		Iterations: iters,
	}
}

func nearestDist(v vsm.Vector, centroids []vsm.Vector) float64 {
	best := math.Inf(1)
	for _, c := range centroids {
		// unit vectors: ||v-c||² = 2 - 2·(v·c)
		d := 2 - 2*v.Dot(c)
		if d < best {
			best = d
		}
	}
	return best
}

// Impurity computes the entropy-based cluster impurity (Duda/Hart/Stork):
// for each cluster the entropy of its aggregated term distribution,
// averaged over clusters weighted by cluster size, and normalized by the
// log of the vocabulary size so values are comparable across K. Tighter,
// more topic-pure clusters concentrate probability mass on fewer terms and
// thus score lower.
func Impurity(docs []vsm.Vector, assign []int, k int) float64 {
	if len(docs) == 0 || k <= 0 {
		return 0
	}
	total := 0.0
	n := 0
	for c := 0; c < k; c++ {
		agg := vsm.Vector{}
		size := 0
		for i, a := range assign {
			if a == c {
				agg.Add(docs[i], 1)
				size++
			}
		}
		if size == 0 {
			continue
		}
		var mass float64
		for _, w := range agg {
			if w > 0 {
				mass += w
			}
		}
		if mass == 0 {
			continue
		}
		var h float64
		for _, w := range agg {
			if w <= 0 {
				continue
			}
			p := w / mass
			h -= p * math.Log(p)
		}
		if len(agg) > 1 {
			h /= math.Log(float64(len(agg)))
		}
		total += h * float64(size)
		n += size
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ChooseK runs KMeans for every K in [kMin, kMax] and returns the result
// minimizing the impurity measure (§3.6: "BINGO! can choose the number of
// clusters such that an entropy-based cluster impurity measure is
// minimized"). Ties favour the smaller K.
func ChooseK(docs []vsm.Vector, kMin, kMax int, opts Options) (Result, int) {
	if kMin < 1 {
		kMin = 1
	}
	if kMax < kMin {
		kMax = kMin
	}
	var best Result
	bestK := 0
	for k := kMin; k <= kMax; k++ {
		o := opts
		o.K = k
		res := KMeans(docs, o)
		if bestK == 0 || res.Impurity < best.Impurity {
			best, bestK = res, k
		}
	}
	return best, bestK
}

// ChooseKTerms is the §3.6 cluster analysis of one class's documents,
// given as term counts: it weights them by tf·idf over the class and runs
// ChooseK. The idf keeps ubiquitous class vocabulary out of the
// centroids, so the suggested subclass labels carry the distinctive terms
// of each cluster.
func ChooseKTerms(docs []map[string]int, kMin, kMax int, opts Options) (Result, int) {
	stats := vsm.NewCorpusStats()
	for _, d := range docs {
		stats.AddDoc(d)
	}
	idf := stats.Snapshot()
	vecs := make([]vsm.Vector, len(docs))
	for i, d := range docs {
		vecs[i] = idf.Weight(d)
	}
	return ChooseK(vecs, kMin, kMax, opts)
}
