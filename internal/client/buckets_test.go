package client

import (
	"testing"
	"testing/quick"

	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

func TestSizeBucket(t *testing.T) {
	cases := map[int]int{
		0:    0,
		-5:   0,
		1:    1,
		2:    2,
		3:    2,
		4:    3,
		1024: 11,
		1025: 11,
	}
	for size, want := range cases {
		if got := SizeBucket(size); got != want {
			t.Errorf("SizeBucket(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestBucketRangeRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		size := int(raw) + 1
		b := SizeBucket(size)
		lo, hi := BucketRange(b)
		return size >= lo && size < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if lo, hi := BucketRange(0); lo != 0 || hi != 1 {
		t.Errorf("BucketRange(0) = %d,%d", lo, hi)
	}
}

func TestBucketAccum(t *testing.T) {
	a := &laneAccum{hists: make([]*stats.Histogram, SizeBucket(100_000)+1)}
	route := []uint8{uint8(SizeBucket(1000)), uint8(SizeBucket(1020)), uint8(SizeBucket(100_000))}
	a.fold(route, []simclock.Duration{10, 30, 500})
	bhs := histograms(a.hists)
	n, sum := classTotals(bhs)
	if n != 3 || sum != 540 {
		t.Fatalf("totals = %d requests, %v ns; want 3, 540", n, sum)
	}
	if len(bhs) != 2 {
		t.Fatalf("classes = %d, want 2", len(bhs))
	}
	if bhs[0].Bucket >= bhs[1].Bucket {
		t.Fatal("classes not sorted")
	}
	if h := HistFor(bhs, SizeBucket(1000)); h == nil || h.N() != 2 || h.Mean() != 20 {
		t.Fatalf("small class = %v", h)
	}
	if HistFor(bhs, 99) != nil {
		t.Fatal("missing class found")
	}
}

// TestMergeBuckets: repetitions fold their class histograms, so a
// shared class's mean is the pooled (count-weighted) mean and a class
// seen by one run only is kept.
func TestMergeBuckets(t *testing.T) {
	class := func(b int, lat ...float64) BucketHistogram {
		h := newLatencyHistogram()
		for _, v := range lat {
			h.Record(v)
		}
		return BucketHistogram{Bucket: b, Hist: h}
	}
	a := []BucketHistogram{class(10, 5, 15), class(11, 100)}
	b := []BucketHistogram{class(10, 20, 40), class(17, 7, 7, 7, 7)}
	m := mergeHistograms(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %d classes", len(m))
	}
	if h := HistFor(m, 10); h.N() != 4 || h.Mean() != 20 {
		t.Fatalf("pooled class = %d requests, mean %v; want 4, 20", h.N(), h.Mean())
	}
	if h := HistFor(m, 17); h == nil || h.Mean() != 7 {
		t.Fatalf("disjoint class lost: %v", h)
	}
	for i := 1; i < len(m); i++ {
		if m[i-1].Bucket >= m[i].Bucket {
			t.Fatal("merged classes not sorted")
		}
	}
}

func TestRunStatsCarryBuckets(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "buckets", Keys: 200, Requests: 2000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.5, Sizes: ycsb.SizeTrendingPreview, Seed: 2,
	})
	st, err := measureRun(server.DefaultConfig(server.RedisLike, 1), w, server.AllSlow())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ReadLatency) < 2 || len(st.WriteLatency) < 2 {
		t.Fatalf("mixed-size run produced %d read / %d write classes",
			len(st.ReadLatency), len(st.WriteLatency))
	}
	// Class counts must sum to the op counts.
	var sum int64
	for _, bh := range st.ReadLatency {
		sum += bh.Hist.N()
	}
	if sum != int64(st.Reads) {
		t.Fatalf("read class counts %d != reads %d", sum, st.Reads)
	}
	// Larger classes cost more on SlowMem.
	first, last := st.ReadLatency[0].Hist, st.ReadLatency[len(st.ReadLatency)-1].Hist
	if last.Mean() <= first.Mean() {
		t.Errorf("big-record class %.0fns not above small %.0fns", last.Mean(), first.Mean())
	}
}
