package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		q, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
		{40, 29}, // interpolated: rank 1.6 → 20 + 0.6*15
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestBoxplotFiveNumber(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := NewBoxplot(xs)
	if b.Min != 1 || b.Max != 100 {
		t.Errorf("extrema %v/%v", b.Min, b.Max)
	}
	if b.Median != 5.5 {
		t.Errorf("median = %v, want 5.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi != 9 {
		t.Errorf("upper whisker = %v, want 9", b.WhiskerHi)
	}
	if b.N != 10 {
		t.Errorf("N = %d", b.N)
	}
}

func TestBoxplotStringNonEmpty(t *testing.T) {
	b := NewBoxplot([]float64{1, 2, 3})
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: for any non-empty data, Q1 ≤ median ≤ Q3 and min ≤ whiskers ≤ max.
func TestBoxplotOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw
		if len(xs) == 0 {
			xs = []float64{0}
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		b := NewBoxplot(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Min <= b.WhiskerLo && b.WhiskerHi <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
