package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refHist is the test oracle for Record and RecordBlock: one observation
// at a time, bucketed by the defining log formula instead of the
// boundary table, under the documented non-finite rule (NaN is recorded
// as 0, +Inf lands in math.MaxFloat64's bucket).
type refHist struct {
	minVal, logGrowth float64
	counts            []int64
	n                 int64
	sum, max          float64
	min               float64
}

func newRefHist(h *Histogram) *refHist {
	return &refHist{minVal: h.minVal, logGrowth: h.logGrowth, min: math.Inf(1)}
}

func (r *refHist) record(v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	b := 0
	if v > r.minVal {
		b = logBucket(math.Min(v, math.MaxFloat64), r.minVal, r.logGrowth)
	}
	for len(r.counts) <= b {
		r.counts = append(r.counts, 0)
	}
	r.counts[b]++
	r.n++
	r.sum += v
	if v > r.max {
		r.max = v
	}
	if v < r.min {
		r.min = v
	}
}

// requireMatchesRef compares every observable of h with the oracle bit for
// bit: bucket counts, N, Sum, Min, Max, and each integer percentile.
func requireMatchesRef(t *testing.T, label string, h *Histogram, r *refHist) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(h.counts) != len(r.counts) {
		t.Fatalf("%s: %d buckets, oracle %d", label, len(h.counts), len(r.counts))
	}
	for i, c := range r.counts {
		if h.counts[i] != c {
			t.Fatalf("%s: bucket %d holds %d, oracle %d", label, i, h.counts[i], c)
		}
	}
	if h.N() != r.n || !same(h.Sum(), r.sum) || !same(h.Min(), r.min) || !same(h.Max(), r.max) {
		t.Fatalf("%s: N/Sum/Min/Max %d/%v/%v/%v, oracle %d/%v/%v/%v",
			label, h.N(), h.Sum(), h.Min(), h.Max(), r.n, r.sum, r.min, r.max)
	}
	want := NewHistogram(h.minVal, h.growth)
	want.counts, want.total, want.sum, want.minSeen, want.maxSeen = r.counts, r.n, r.sum, r.min, r.max
	for p := 0; p <= 100; p++ {
		if g, w := h.Quantile(float64(p)/100), want.Quantile(float64(p)/100); !same(g, w) {
			t.Fatalf("%s: p%d = %v, oracle %v", label, p, g, w)
		}
	}
}

// edgeValues are the inputs where the bucketing rule changes hands: at
// and around zero and minVal, around the table's last boundary (where
// the formula fallback takes over), the largest floats, and the
// non-finite values.
func edgeValues(h *Histogram) []float64 {
	last := h.table.last
	return []float64{
		0, math.Copysign(0, -1), -1, -1e300, math.SmallestNonzeroFloat64,
		math.Nextafter(h.minVal, 0), h.minVal, math.Nextafter(h.minVal, math.Inf(1)),
		math.Nextafter(last, 0), last, math.Nextafter(last, math.Inf(1)), last * 7,
		1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
}

// randomValue draws from every region edgeValues marks, plus the
// tabulated latency range where nearly all real observations fall.
func randomValue(rng *rand.Rand, h *Histogram) float64 {
	switch r := rng.Intn(20); {
	case r < 12:
		return h.minVal * math.Exp(rng.Float64()*12) // tabulated range
	case r < 14:
		return -rng.Float64() * 1e4 // non-positive
	case r < 15:
		return rng.Float64() * h.minVal // at or below minVal
	case r < 17:
		return h.table.last * (1 + rng.Float64()*1e6) // formula fallback
	default:
		ev := edgeValues(h)
		return ev[rng.Intn(len(ev))]
	}
}

// TestRecordBlockMatchesRecord pins the block fold to the per-value
// Record: random blocks routed over several histograms — one of which
// first appears mid-block — must leave each histogram exactly as the
// oracle fed the same values in order, and exactly as Record calls do.
// Integer observations (the replay loop's durations) take the same rule
// through their float64 conversion.
func TestRecordBlockMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nHists = 5
	block := make([]*Histogram, nHists)
	single := make([]*Histogram, nHists)
	ints := make([]*Histogram, nHists)
	refs := make([]*refHist, nHists)
	intRefs := make([]*refHist, nHists)
	for i := range block {
		block[i], single[i], ints[i] = NewHistogram(100, 1.02), NewHistogram(100, 1.02), NewHistogram(100, 1.02)
		refs[i], intRefs[i] = newRefHist(block[i]), newRefHist(ints[i])
	}
	for round := 0; round < 200; round++ {
		n := rng.Intn(4097)
		vs := make([]float64, n)
		ds := make([]int64, n)
		route := make([]uint8, n)
		for i := range vs {
			vs[i] = randomValue(rng, block[0])
			ds[i] = rng.Int63n(1<<40) - 1<<20
			// The last histogram is first routed to halfway through round 0.
			route[i] = uint8(rng.Intn(nHists - 1))
			if round > 0 || i >= n/2 {
				route[i] = uint8(rng.Intn(nHists))
			}
		}
		RecordBlock(block, route, vs)
		RecordBlock(ints, route, ds)
		for i, v := range vs {
			single[route[i]].Record(v)
			refs[route[i]].record(v)
			intRefs[route[i]].record(float64(ds[i]))
		}
	}
	for i := range block {
		requireMatchesRef(t, "RecordBlock", block[i], refs[i])
		requireMatchesRef(t, "Record", single[i], refs[i])
		requireMatchesRef(t, "RecordBlock of integers", ints[i], intRefs[i])
	}
}

// TestHistogramNonFiniteInput pins the non-finite rule Record and
// RecordBlock share: +Inf lands in the top bucket (math.MaxFloat64's)
// instead of overflowing the bucket index, and NaN is recorded as 0, so
// Sum, Mean and the quantiles stay finite.
func TestHistogramNonFiniteInput(t *testing.T) {
	h := NewHistogram(100, 1.02)
	h.Record(math.Inf(1))
	top := logBucket(math.MaxFloat64, h.minVal, h.logGrowth)
	if len(h.counts) != top+1 || h.counts[top] != 1 {
		t.Fatalf("+Inf not in the top bucket %d (%d buckets)", top, len(h.counts))
	}
	if h.N() != 1 || !math.IsInf(h.Max(), 1) || !math.IsInf(h.Quantile(0.5), 1) {
		t.Fatalf("+Inf: N %d, Max %v, p50 %v", h.N(), h.Max(), h.Quantile(0.5))
	}

	h = NewHistogram(100, 1.02)
	h.Record(math.NaN())
	if h.N() != 1 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 {
		t.Fatalf("NaN: N %d, Sum %v, Mean %v, p50 %v, Min %v", h.N(), h.Sum(), h.Mean(), h.Quantile(0.5), h.Min())
	}
	h.Record(200)
	h.Record(math.NaN())
	h.Record(400)
	if h.N() != 4 || h.Sum() != 600 || h.Mean() != 150 || h.Max() != 400 {
		t.Fatalf("NaN among finite values: N %d, Sum %v, Mean %v, Max %v", h.N(), h.Sum(), h.Mean(), h.Max())
	}
	if p := h.Quantile(0.99); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("NaN poisoned p99: %v", p)
	}

	h = NewHistogram(100, 1.02)
	h.Record(math.Inf(-1))
	if h.counts[0] != 1 || !math.IsInf(h.Min(), -1) {
		t.Fatalf("-Inf: bucket 0 holds %d, Min %v", h.counts[0], h.Min())
	}
}

// FuzzRecordBlock feeds arbitrary blocks — each 9 input bytes are a
// route byte and a float64's bits — through RecordBlock and checks the
// result against the oracle. The seed corpus covers every edge value.
func FuzzRecordBlock(f *testing.F) {
	h := NewHistogram(100, 1.02)
	var seed []byte
	for i, v := range edgeValues(h) {
		seed = append(seed, byte(i))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(seed[:9])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nHists = 3
		hs := make([]*Histogram, nHists)
		refs := make([]*refHist, nHists)
		for i := range hs {
			hs[i] = NewHistogram(100, 1.02)
			refs[i] = newRefHist(hs[i])
		}
		var route []uint8
		var vs []float64
		for ; len(data) >= 9; data = data[9:] {
			r := data[0] % nHists
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			route = append(route, r)
			vs = append(vs, v)
			refs[r].record(v)
		}
		RecordBlock(hs, route, vs)
		for i := range hs {
			requireMatchesRef(t, "fuzz", hs[i], refs[i])
		}
	})
}
