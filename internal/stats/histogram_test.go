package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 1.05)
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i))
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d, want 1000", h.N())
	}
	if !almostEqual(h.Mean(), 500.5, 1e-9) {
		t.Errorf("Mean = %v, want 500.5", h.Mean())
	}
	if h.Max() != 1000 || h.Min() != 1 {
		t.Errorf("extrema %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(1e-6, 1.02)
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 50000)
	for i := range xs {
		// Lognormal-ish latencies.
		xs[i] = math.Exp(rng.NormFloat64()*0.5 + 2)
		h.Record(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))-1]
		got := h.Quantile(q)
		rel := math.Abs(got-exact) / exact
		if rel > 0.03 {
			t.Errorf("q=%v: got %v, exact %v, rel err %.3f", q, got, exact, rel)
		}
	}
}

func TestHistogramEdgeQuantiles(t *testing.T) {
	h := NewHistogram(1, 1.1)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Record(5)
	h.Record(50)
	if got := h.Quantile(0); got != 5 {
		t.Errorf("q=0 → %v, want min 5", got)
	}
	if got := h.Quantile(1); got != 50 {
		t.Errorf("q=1 → %v, want max 50", got)
	}
}

func TestHistogramNonPositiveClamped(t *testing.T) {
	h := NewHistogram(1, 1.1)
	h.Record(0)
	h.Record(-3)
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
	// Both land in the lowest bucket; quantile must not panic.
	_ = h.Quantile(0.5)
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1.1) },
		func() { NewHistogram(-1, 1.1) },
		func() { NewHistogram(1, 1.0) },
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

func TestHistogramStringNonEmpty(t *testing.T) {
	h := NewHistogram(1, 1.1)
	h.Record(2)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}
