// Package stats provides the statistical machinery used throughout the
// Mnemo reproduction: means, exact and histogram-based percentiles and
// five-number (boxplot) summaries.
//
// The paper reports throughput means over repeated runs (Fig 5), boxplots
// of estimate error per key-value store (Fig 8a) and average and tail
// request latencies (Fig 8c–8e); those reductions are implemented here
// against stdlib only.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs using linear
// interpolation between closest ranks (the same convention as numpy's
// default). It panics on an empty slice or out-of-range q. xs is not
// modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if q < 0 || q > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

// percentileSorted computes a percentile over already-sorted data.
func percentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Boxplot is the five-number summary used for Fig 8a's error boxplots,
// plus the conventional 1.5·IQR whiskers and outliers.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
	Outliers                 []float64
	N                        int
}

// NewBoxplot computes the five-number summary of xs. It panics on an empty
// slice. xs is not modified.
func NewBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		panic("stats: NewBoxplot of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Boxplot{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x > b.WhiskerHi {
			b.WhiskerHi = x
		}
	}
	return b
}

// String renders the boxplot as a compact one-line summary.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g (%d outliers)",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, len(b.Outliers))
}
