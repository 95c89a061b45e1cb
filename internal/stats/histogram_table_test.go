package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestBucketTableMatchesLogFormula is the exactness contract of the
// boundary table: for every float64 the table must return the bucket the
// defining log formula returns — including one ulp either side of every
// tabulated boundary and of every lookup-cell edge, where an off-by-one
// would silently skew quantiles. The four geometries put the cells in
// every relation to the buckets: about seven cells per bucket (1.02),
// eighteen (1.05), a hundred and fifty (1.5), and two or three
// boundaries inside one cell (1.001).
func TestBucketTableMatchesLogFormula(t *testing.T) {
	for _, geom := range []struct{ min, growth float64 }{
		{100, 1.02},
		{100, 1.05},
		{1, 1.5},
		{0.25, 1.001},
	} {
		h := NewHistogram(geom.min, geom.growth)
		formula := func(v float64) int {
			if v <= h.minVal {
				return 0
			}
			return logBucket(v, h.minVal, h.logGrowth)
		}
		check := func(v float64) {
			t.Helper()
			if got, want := h.bucketFor(v), formula(v); got != want {
				t.Fatalf("geometry (%v, %v): bucketFor(%v) = %d, formula says %d",
					geom.min, geom.growth, v, got, want)
			}
		}
		for _, b := range h.table.bounds {
			check(math.Nextafter(b, 0))
			check(b)
			check(math.Nextafter(b, math.Inf(1)))
		}
		tab := h.table
		for k := range tab.cells {
			edge := math.Float64frombits((tab.cellBase + uint64(k)) << cellShift)
			check(math.Nextafter(edge, 0))
			check(edge)
			check(math.Nextafter(edge, math.Inf(1)))
		}
		// Buckets wider than a cell take the one-step lookup; the 1.001
		// geometry keeps the walk.
		if want := geom.growth > 1.004; tab.single != want {
			t.Fatalf("geometry (%v, %v): single-step lookup %t, want %t", geom.min, geom.growth, tab.single, want)
		}
		if top := math.Float64bits(tab.last)>>cellShift - tab.cellBase; int(top) != len(tab.cells)-1 {
			t.Fatalf("geometry (%v, %v): %d cells do not end at the last boundary's cell %d",
				geom.min, geom.growth, len(tab.cells), top)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200000; i++ {
			// Log-uniform values spanning below minVal through past the
			// table's upper limit (exercising the formula fallback).
			v := math.Exp(rng.Float64()*math.Log(maxTableBound*100/geom.min)) * geom.min / 10
			check(v)
		}
		check(geom.min)
		check(maxTableBound)
		check(maxTableBound * 10)
	}
}

func TestBucketTableSharedAcrossHistograms(t *testing.T) {
	a, b := NewHistogram(100, 1.02), NewHistogram(100, 1.02)
	if a.table != b.table {
		t.Fatal("same geometry must share one boundary table")
	}
	c := NewHistogram(100, 1.05)
	if c.table == a.table {
		t.Fatal("different geometries must not share a table")
	}
}
