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
	bs, n, sum := classTotals(histograms(a.hists))
	if n != 3 || sum != 540 {
		t.Fatalf("totals = %d requests, %v ns; want 3, 540", n, sum)
	}
	if len(bs) != 2 {
		t.Fatalf("buckets = %d, want 2", len(bs))
	}
	if bs[0].Bucket >= bs[1].Bucket {
		t.Fatal("buckets not sorted")
	}
	if m, ok := MeanFor(bs, SizeBucket(1000)); !ok || m != 20 {
		t.Fatalf("small bucket mean = %v, %v", m, ok)
	}
	if _, ok := MeanFor(bs, 99); ok {
		t.Fatal("missing bucket found")
	}
}

func TestMergeBuckets(t *testing.T) {
	a := []BucketStat{{Bucket: 10, Count: 2, MeanNs: 10}, {Bucket: 11, Count: 1, MeanNs: 100}}
	b := []BucketStat{{Bucket: 10, Count: 2, MeanNs: 30}, {Bucket: 17, Count: 4, MeanNs: 7}}
	m := mergeBuckets(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %d buckets", len(m))
	}
	if v, _ := MeanFor(m, 10); v != 20 {
		t.Fatalf("weighted mean = %v, want 20", v)
	}
	if v, _ := MeanFor(m, 17); v != 7 {
		t.Fatalf("disjoint bucket lost: %v", v)
	}
	for i := 1; i < len(m); i++ {
		if m[i-1].Bucket >= m[i].Bucket {
			t.Fatal("merged buckets not sorted")
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
	if len(st.ReadBuckets) < 2 || len(st.WriteBuckets) < 2 {
		t.Fatalf("mixed-size run produced %d read / %d write buckets",
			len(st.ReadBuckets), len(st.WriteBuckets))
	}
	// Counts must sum to the op counts.
	sum := 0
	for _, b := range st.ReadBuckets {
		sum += b.Count
	}
	if sum != st.Reads {
		t.Fatalf("read bucket counts %d != reads %d", sum, st.Reads)
	}
	// Larger buckets cost more on SlowMem.
	first, last := st.ReadBuckets[0], st.ReadBuckets[len(st.ReadBuckets)-1]
	if last.MeanNs <= first.MeanNs {
		t.Errorf("big-record bucket %.0fns not above small %.0fns", last.MeanNs, first.MeanNs)
	}
}
