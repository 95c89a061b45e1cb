package stats

import (
	"fmt"
	"math"
	"sync"
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: values are recorded into buckets whose width grows
// geometrically, giving bounded relative error for percentile queries at
// O(1) memory per recording. It is used by the client to track request
// latencies for the tail-latency figures (Fig 8d, 8e) without retaining
// every sample.
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	growth    float64 // geometric bucket growth factor, > 1
	logGrowth float64 // cached math.Log(growth); spares one Log per Record
	minVal    float64 // lower bound of bucket 0
	table     *bucketTable
	counts    []int64
	total     int64
	sum       float64
	maxSeen   float64
	minSeen   float64
}

// NewHistogram creates a histogram whose buckets start at minVal and grow
// by the given factor per bucket. A growth of 1.05 bounds the relative
// quantile error at about 5%. It panics on invalid parameters.
func NewHistogram(minVal, growth float64) *Histogram {
	if minVal <= 0 {
		panic("stats: histogram minVal must be positive")
	}
	if growth <= 1 {
		panic("stats: histogram growth must exceed 1")
	}
	return &Histogram{
		growth:    growth,
		logGrowth: math.Log(growth),
		minVal:    minVal,
		table:     tableFor(minVal, growth),
		minSeen:   math.Inf(1),
	}
}

// logBucket is the defining bucket formula: values v > minVal land in
// bucket floor(log(v/minVal)/log(growth)) + 1. Record goes through a
// precomputed boundary table instead (bucketFor below), which by
// construction returns exactly this function's result for every float —
// the table spares two transcendental calls per recording, it does not
// change the geometry.
func logBucket(v, minVal, logGrowth float64) int {
	return int(math.Log(v/minVal)/logGrowth) + 1
}

// bucketFor maps a value to its bucket index: values at or below minVal
// share bucket 0, and values past the largest finite float — +Inf — share
// the top bucket, the one math.MaxFloat64 falls in. NaN has no bucket;
// callers apply nanToZero first.
func (h *Histogram) bucketFor(v float64) int {
	if v <= h.minVal {
		return 0
	}
	if t := h.table; v < t.last {
		return t.lookup(v)
	}
	return logBucket(min(v, math.MaxFloat64), h.minVal, h.logGrowth)
}

// bucketTable precomputes the exact bucket boundaries of one (minVal,
// growth) geometry so the per-Record bucket lookup is a table load plus
// a short walk of the exact boundary array — no logarithms on the hot
// path. bounds[i] is the smallest float64 whose logBucket is i+2 (the
// boundary between buckets i+1 and i+2), found by ulp-walking around
// minVal·growth^(i+1), so table and formula agree on every input bit for
// bit. cells cuts the tabulated range into cells of equal top float bits
// (cellShift: sign, exponent and 8 mantissa bits, 256 cells per octave):
// cells[k] counts the boundaries at or below the lowest value of cell
// k+cellBase, which is where a lookup in that cell starts walking.
// single records that no cell holds more than one boundary, so the walk
// is at most one step.
type bucketTable struct {
	bounds   []float64
	last     float64 // bounds[len-1]; values at or above fall back to the formula
	cells    []int32
	cellBase uint64 // cell number of minVal
	single   bool
}

// Boundaries are tabulated up to 1e15 (for latency histograms: ~11 days
// in nanoseconds); larger values are rare enough to pay the Log.
const (
	maxTableBound = 1e15
	cellShift     = 44
)

func buildBucketTable(minVal, growth float64) *bucketTable {
	logGrowth := math.Log(growth)
	var bounds []float64
	for k := 1; ; k++ {
		v := minVal * math.Pow(growth, float64(k))
		if v > maxTableBound {
			break
		}
		// Pow lands within ulps of the true boundary; walk to the exact
		// smallest float the formula assigns to bucket k+1.
		for v > minVal && logBucket(v, minVal, logGrowth) >= k+1 {
			v = math.Nextafter(v, 0)
		}
		for v <= minVal || logBucket(v, minVal, logGrowth) < k+1 {
			v = math.Nextafter(v, math.Inf(1))
		}
		bounds = append(bounds, v)
	}
	if len(bounds) == 0 {
		return &bucketTable{last: minVal} // degenerate geometry, formula only
	}
	t := &bucketTable{bounds: bounds, last: bounds[len(bounds)-1], cellBase: math.Float64bits(minVal) >> cellShift}
	t.cells = make([]int32, math.Float64bits(t.last)>>cellShift-t.cellBase+1)
	c := 0
	for k := range t.cells {
		lowest := math.Float64frombits((t.cellBase + uint64(k)) << cellShift)
		for c < len(bounds) && bounds[c] <= lowest {
			c++
		}
		t.cells[k] = int32(c)
	}
	t.single = true
	for k, c := range t.cells {
		next := int32(len(bounds))
		if k+1 < len(t.cells) {
			next = t.cells[k+1]
		}
		if next-c > 1 {
			t.single = false
		}
	}
	return t
}

// lookup returns the bucket of v; the caller guarantees
// minVal < v < t.last. The bucket is 1 + (number of boundaries ≤ v):
// the count for v's cell, then a forward walk over the boundaries inside
// the cell that v has passed — a few steps for fine geometries, and at
// most one when a bucket is wider than a cell (growth above 1.004),
// which single turns into one compare and add. v < t.last keeps
// bounds[c] in range there. Both are positive, and positive floats order
// as their bit patterns, below 2⁶³: the sign of their difference is the
// step, with no branch to mispredict.
func (t *bucketTable) lookup(v float64) int {
	bits := int64(math.Float64bits(v))
	c := int(t.cells[uint64(bits)>>cellShift-t.cellBase])
	if t.single {
		return c + 2 + int((bits-int64(math.Float64bits(t.bounds[c])))>>63)
	}
	for c < len(t.bounds) && t.bounds[c] <= v {
		c++
	}
	return c + 1
}

// tableFor returns the shared boundary table of a geometry, building it
// on first use. Histograms of one geometry all point at one immutable
// table, so construction cost is paid once per process.
var (
	tableMu    sync.Mutex
	tableCache = map[[2]float64]*bucketTable{}
)

func tableFor(minVal, growth float64) *bucketTable {
	tableMu.Lock()
	defer tableMu.Unlock()
	key := [2]float64{minVal, growth}
	t, ok := tableCache[key]
	if !ok {
		t = buildBucketTable(minVal, growth)
		tableCache[key] = t
	}
	return t
}

// bucketUpper returns the representative (upper bound) value for bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return h.minVal
	}
	return h.minVal * math.Pow(h.growth, float64(i))
}

// Record adds one observation. Non-positive values are clamped into the
// lowest bucket (latencies are always positive in practice) and +Inf
// into the top one; both still count toward Sum, Min and Max. NaN has no
// magnitude and is recorded as 0, so it cannot poison Sum or Mean.
func (h *Histogram) Record(v float64) {
	v = nanToZero(v)
	h.add(h.bucketFor(v), v)
}

// RecordBlock records float64(vs[i]) into hs[route[i]] for every i, in
// order — exactly the Record call sequence, so each histogram's counts,
// Sum, Min and Max come out bit-identical. It exists for callers that
// fold a block of observations at a time (the replay loop's latencies):
// one call per block, with the bucket-table lookup inlined, instead of
// one Record call per value. Every routed histogram must be non-nil.
func RecordBlock[V ~int64 | ~float64](hs []*Histogram, route []uint8, vs []V) {
	route = route[:len(vs)]
	for i, x := range vs {
		h := hs[route[i]]
		v := nanToZero(float64(x))
		var idx int
		if t := h.table; v > h.minVal && v < t.last {
			idx = t.lookup(v) // bucketFor's tabulated case, inlined
		} else {
			idx = h.bucketFor(v)
		}
		h.add(idx, v)
	}
}

// nanToZero is the NaN rule of Record and RecordBlock: NaN is recorded
// as 0.
func nanToZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// add counts v into bucket idx and into the exact totals and extrema.
func (h *Histogram) add(idx int, v float64) {
	if idx >= len(h.counts) {
		h.growCounts(idx)
	}
	h.counts[idx]++
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
}

// growCounts extends the bucket counts to cover index idx.
func (h *Histogram) growCounts(idx int) {
	grown := make([]int64, idx+1)
	copy(grown, h.counts)
	h.counts = grown
}

// N returns the number of recorded observations.
func (h *Histogram) N() int64 { return h.total }

// Sum returns the exact sum of recorded observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean of recorded observations (tracked outside
// the buckets, so it carries no bucketing error).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded observation (exact).
func (h *Histogram) Max() float64 { return h.maxSeen }

// Min returns the smallest recorded observation (exact), or +Inf if empty.
func (h *Histogram) Min() float64 { return h.minSeen }

// Quantile returns an estimate of the q-th quantile (0 < q ≤ 1) with
// relative error bounded by the bucket growth factor. It returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	target := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := h.bucketUpper(i)
			// Clamp to the observed extrema so tails stay exact.
			if v > h.maxSeen {
				v = h.maxSeen
			}
			if v < h.minSeen {
				v = h.minSeen
			}
			return v
		}
	}
	return h.maxSeen
}

// String renders a short textual summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.maxSeen)
}

// Compatible reports whether two histograms share bucket geometry and
// can therefore be merged or mixed.
func (h *Histogram) Compatible(o *Histogram) bool {
	return h.minVal == o.minVal && h.growth == o.growth
}

// Merge folds another histogram's recordings into h. The histograms must
// share bucket geometry (same NewHistogram parameters); Merge panics
// otherwise.
func (h *Histogram) Merge(o *Histogram) {
	if !h.Compatible(o) {
		panic("stats: merging incompatible histograms")
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	if o.minSeen < h.minSeen {
		h.minSeen = o.minSeen
	}
}

// MixtureQuantile returns the q-th quantile (0 < q < 1) of the weighted
// mixture of histograms: component i contributes weight[i] total
// probability mass, distributed according to its empirical shape. All
// histograms must share bucket geometry; components with zero weight or
// no recordings are skipped. It panics on mismatched slice lengths or
// incompatible geometry, and returns 0 when no mass remains.
//
// This powers the tail-latency estimation extension: the latency
// distribution of a hybrid tiering is a mixture of the per-tier baseline
// distributions, weighted by how many requests the tiering sends to each
// tier.
func MixtureQuantile(hs []*Histogram, weights []float64, q float64) float64 {
	if len(hs) != len(weights) {
		panic("stats: mixture length mismatch")
	}
	var ref *Histogram
	totalW := 0.0
	maxBuckets := 0
	for i, h := range hs {
		if weights[i] < 0 {
			panic("stats: negative mixture weight")
		}
		if weights[i] == 0 || h == nil || h.total == 0 {
			continue
		}
		if ref == nil {
			ref = h
		} else if !ref.Compatible(h) {
			panic("stats: mixing incompatible histograms")
		}
		totalW += weights[i]
		if len(h.counts) > maxBuckets {
			maxBuckets = len(h.counts)
		}
	}
	if ref == nil || totalW == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q >= 1 {
		q = 1 - 1e-9
	}
	target := q * totalW
	cum := 0.0
	for b := 0; b < maxBuckets; b++ {
		for i, h := range hs {
			if weights[i] == 0 || h == nil || h.total == 0 || b >= len(h.counts) {
				continue
			}
			cum += weights[i] * float64(h.counts[b]) / float64(h.total)
		}
		if cum >= target {
			return ref.bucketUpper(b)
		}
	}
	// Mass exhausted by rounding: report the largest observation.
	out := 0.0
	for i, h := range hs {
		if weights[i] > 0 && h != nil && h.total > 0 && h.maxSeen > out {
			out = h.maxSeen
		}
	}
	return out
}
