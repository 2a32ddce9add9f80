package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/bingo-search/bingo/internal/vsm"
)

// twoTopics builds nA vectors around topic A terms and nB around topic B.
func twoTopics(nA, nB int, seed int64) []vsm.Vector {
	rng := rand.New(rand.NewSource(seed))
	var docs []vsm.Vector
	for i := 0; i < nA; i++ {
		docs = append(docs, vsm.Vector{
			"databas": 3 + rng.Float64(), "recoveri": 2 + rng.Float64(), "transact": 1 + rng.Float64(),
		})
	}
	for i := 0; i < nB; i++ {
		docs = append(docs, vsm.Vector{
			"soccer": 3 + rng.Float64(), "goal": 2 + rng.Float64(), "match": 1 + rng.Float64(),
		})
	}
	return docs
}

func TestKMeansSeparatesTopics(t *testing.T) {
	docs := twoTopics(10, 10, 1)
	res := KMeans(docs, Options{K: 2, Seed: 1})
	if len(res.Assign) != 20 || len(res.Centroids) != 2 {
		t.Fatalf("result shape: %d assigns, %d centroids", len(res.Assign), len(res.Centroids))
	}
	// all A docs in one cluster, all B docs in the other
	a := res.Assign[0]
	for i := 1; i < 10; i++ {
		if res.Assign[i] != a {
			t.Fatalf("topic A split: %v", res.Assign)
		}
	}
	b := res.Assign[10]
	if b == a {
		t.Fatalf("topics merged: %v", res.Assign)
	}
	for i := 11; i < 20; i++ {
		if res.Assign[i] != b {
			t.Fatalf("topic B split: %v", res.Assign)
		}
	}
}

func TestKMeansLabels(t *testing.T) {
	docs := twoTopics(10, 10, 2)
	res := KMeans(docs, Options{K: 2, Seed: 2, LabelLen: 3})
	seenDB, seenSport := false, false
	for _, lbl := range res.Labels {
		if len(lbl) == 0 || len(lbl) > 3 {
			t.Fatalf("label length: %v", lbl)
		}
		for _, term := range lbl {
			if term == "databas" {
				seenDB = true
			}
			if term == "soccer" {
				seenSport = true
			}
		}
	}
	if !seenDB || !seenSport {
		t.Errorf("labels miss characteristic terms: %v", res.Labels)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if res := KMeans(nil, Options{K: 3}); len(res.Assign) != 0 {
		t.Error("empty input produced assignments")
	}
	if res := KMeans(twoTopics(3, 0, 3), Options{K: 0}); len(res.Assign) != 0 {
		t.Error("K=0 produced assignments")
	}
	// K > n clamps
	docs := twoTopics(2, 1, 4)
	res := KMeans(docs, Options{K: 10, Seed: 4})
	if len(res.Centroids) != 3 {
		t.Errorf("K not clamped: %d centroids", len(res.Centroids))
	}
	// single doc
	res = KMeans(twoTopics(1, 0, 5), Options{K: 1, Seed: 5})
	if len(res.Assign) != 1 || res.Assign[0] != 0 {
		t.Errorf("single doc: %v", res.Assign)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	docs := twoTopics(8, 8, 6)
	a := KMeans(docs, Options{K: 2, Seed: 42})
	b := KMeans(docs, Options{K: 2, Seed: 42})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("nondeterministic under fixed seed")
		}
	}
}

func TestImpurityOrdering(t *testing.T) {
	docs := twoTopics(10, 10, 7)
	normed := make([]vsm.Vector, len(docs))
	for i, d := range docs {
		normed[i] = d.Copy().Normalize()
	}
	// correct split vs merged assignment
	correct := make([]int, 20)
	for i := 10; i < 20; i++ {
		correct[i] = 1
	}
	merged := make([]int, 20) // everything in cluster 0
	if Impurity(normed, correct, 2) >= Impurity(normed, merged, 1) {
		t.Errorf("correct split impurity %v >= merged %v",
			Impurity(normed, correct, 2), Impurity(normed, merged, 1))
	}
}

func TestChooseK(t *testing.T) {
	docs := twoTopics(12, 12, 8)
	res, k := ChooseK(docs, 1, 4, Options{Seed: 8})
	if k < 2 {
		t.Errorf("ChooseK = %d, want >= 2 for two clear topics", k)
	}
	if len(res.Assign) != 24 {
		t.Errorf("result shape: %d", len(res.Assign))
	}
	// degenerate ranges
	_, k = ChooseK(docs, 0, 0, Options{Seed: 8})
	if k != 1 {
		t.Errorf("degenerate range K = %d", k)
	}
}

// Property: assignments are always within range, every cluster index in
// [0,K) appears at most n times, and impurity is in [0, 1].
func TestKMeansProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func() bool {
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(6)
		docs := make([]vsm.Vector, n)
		for i := range docs {
			docs[i] = vsm.Vector{}
			for j := 0; j < 1+rng.Intn(5); j++ {
				docs[i][string(rune('a'+rng.Intn(8)))] = rng.Float64() + 0.1
			}
		}
		res := KMeans(docs, Options{K: k, Seed: int64(n*10 + k)})
		if len(res.Assign) != n {
			return false
		}
		kk := k
		if kk > n {
			kk = n
		}
		for _, a := range res.Assign {
			if a < 0 || a >= kk {
				return false
			}
		}
		return res.Impurity >= 0 && res.Impurity <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKMeans(b *testing.B) {
	docs := twoTopics(200, 200, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KMeans(docs, Options{K: 4, Seed: int64(i)})
	}
}
