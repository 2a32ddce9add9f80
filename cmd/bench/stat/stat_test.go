package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs) print for the same input — the driver computes its
// spreads with those.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{2.5, 1, 7, 3, 9.5, 4}, 2.125, 3.5, 7.625},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(Median(c.xs), c.q2) {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, Median(c.xs), q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// With 1,000 samples exactly ten lie beyond the 99th percentile.
	beyond := 0
	for _, x := range xs {
		if x > Percentile(xs, 99) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", beyond)
	}
	if Percentile(nil, 50) != 0 || Median(nil) != 0 {
		t.Error("empty sample must read 0")
	}
}
