package core

import (
	"context"
	"math"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// sizeAwareWorkload mixes record sizes over eight power-of-two classes
// and carries writes, so both kinds' per-class penalties are exercised.
func sizeAwareWorkload() *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "sizeaware_golden", Keys: 40, Requests: 4000,
		Dist:      ycsb.DistSpec{Kind: ycsb.ScrambledZipfian},
		ReadRatio: 0.7, Sizes: ycsb.SizeTrendingPreview, Seed: 5,
	})
}

// sizeAwareCurve measures the baselines of sizeAwareWorkload on
// redislike at seed 9 over `runs` repetitions and returns them with the
// size-aware estimate of the MnemoT ordering.
func sizeAwareCurve(t *testing.T, runs int) (Baselines, *Curve) {
	t.Helper()
	w := sizeAwareWorkload()
	cfg := DefaultConfig(server.RedisLike, 9)
	cfg.Runs = runs
	b, err := MeasureBaselines(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := NewEstimateEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	ee.SetSizeAware(true)
	c, err := ee.Curve(w, b, MnemoTOrdering(w))
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

// sizeAwareGolden is the size-aware curve's EstRuntime per point, in ns,
// at one repetition (the first) and at two (the second), as the estimate
// computed them from a separate per-class count/mean table before it read
// the class histograms directly.
var sizeAwareGolden = map[int][]simclock.Duration{
	1: {
		172618492, 172616249, 172614770, 172617615, 172617056, 172618148,
		172588249, 172589150, 172588611, 172588205, 172587683, 172587271,
		172573189, 172573327, 172573610, 172568852, 172563765, 172559623,
		172557715, 172498221, 172496823, 172496055, 172383364, 172381941,
		172355810, 172336017, 172313713, 172302350, 172289453, 172189271,
		172182643, 172175373, 172138139, 172138139, 172138139, 172138139,
		172138139, 172138139, 172138139, 172138139, 172138139,
	},
	2: {
		172650143, 172648099, 172646207, 172647036, 172646272, 172646605,
		172612633, 172612901, 172612253, 172611701, 172611006, 172610415,
		172594341, 172594310, 172594400, 172588328, 172582618, 172577868,
		172575716, 172517358, 172515771, 172514793, 172393432, 172391797,
		172368505, 172345374, 172321585, 172309684, 172293875, 172187975,
		172181246, 172172725, 172133033, 172133033, 172133033, 172133033,
		172133033, 172133033, 172133033, 172133033, 172133033,
	},
}

// TestSizeAwareCurveGolden pins the size-aware estimate point for point.
// At one repetition the class means are the very numbers the old table
// held, so the curve must be equal. At two, a pooled class mean is
// sum/count over both runs where the table merged count-weighted means;
// the two agree to rounding, so each point may move by at most 1 ns.
func TestSizeAwareCurveGolden(t *testing.T) {
	for runs, want := range sizeAwareGolden {
		_, c := sizeAwareCurve(t, runs)
		if len(c.Points) != len(want) {
			t.Fatalf("runs=%d: %d points, want %d", runs, len(c.Points), len(want))
		}
		slack := simclock.Duration(0)
		if runs > 1 {
			slack = 1
		}
		for i, p := range c.Points {
			if d := p.EstRuntime - want[i]; d < -slack || d > slack {
				t.Fatalf("runs=%d: point %d EstRuntime %d, want %d", runs, i, p.EstRuntime, want[i])
			}
		}
	}
}

// TestSizeAwarePooledPenalty: over two repetitions the estimate's
// per-class penalty (bucketDiff) is the difference of the pooled class
// means — each run's class mean weighted by its request count — to
// within 1e-12 relative.
func TestSizeAwarePooledPenalty(t *testing.T) {
	b, _ := sizeAwareCurve(t, 2)
	w := sizeAwareWorkload()
	var per [2]Baselines
	for i := range per {
		cfg := DefaultConfig(server.RedisLike, 9+int64(i)*1009) // repetition i's seed
		var err error
		if per[i], err = MeasureBaselines(context.Background(), cfg, w); err != nil {
			t.Fatal(err)
		}
	}
	pooled := func(pick func(Baselines) []client.BucketHistogram, bucket int) float64 {
		var n, sum float64
		for _, p := range per {
			if h := client.HistFor(pick(p), bucket); h != nil {
				n += float64(h.N())
				sum += h.Mean() * float64(h.N())
			}
		}
		return sum / n
	}
	kinds := map[string][2]func(Baselines) []client.BucketHistogram{
		"read": {
			func(b Baselines) []client.BucketHistogram { return b.Slow.ReadLatency },
			func(b Baselines) []client.BucketHistogram { return b.Fast.ReadLatency },
		},
		"write": {
			func(b Baselines) []client.BucketHistogram { return b.Slow.WriteLatency },
			func(b Baselines) []client.BucketHistogram { return b.Fast.WriteLatency },
		},
	}
	for kind, pick := range kinds {
		slow, fast := pick[0], pick[1]
		if len(slow(b)) < 2 {
			t.Fatalf("%s: %d size classes, want a mixed-size run", kind, len(slow(b)))
		}
		diff := bucketDiff(slow(b), fast(b), math.NaN())
		for _, bh := range slow(b) {
			lo, _ := client.BucketRange(bh.Bucket)
			got := diff(KeyStat{Size: lo})
			want := pooled(slow, bh.Bucket) - pooled(fast, bh.Bucket)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s class %d: penalty %v, pooled %v", kind, bh.Bucket, got, want)
			}
		}
	}
}
