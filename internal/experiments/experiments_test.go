package experiments

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func TestScaleValidate(t *testing.T) {
	if err := Full.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Scale{}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Coefficients) != 3 || len(r.Shares) < 10 {
		t.Fatalf("coeffs %d shares %d", len(r.Coefficients), len(r.Shares))
	}
	for _, s := range r.Shares {
		if s.MemoryShare < 0.5 || s.MemoryShare > 0.9 {
			t.Errorf("%s/%s share %.2f outside Fig 1 band", s.Provider, s.Instance, s.MemoryShare)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("render failed")
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	if lf := r.LatencyFactor(); lf < 3.6 || lf > 3.65 {
		t.Errorf("latency factor %.3f, want 3.62", lf)
	}
	if bf := r.BandwidthFactor(); bf < 0.118 || bf > 0.125 {
		t.Errorf("bandwidth factor %.3f, want ≈0.12", bf)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FastMem") {
		t.Error("render missing node names")
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].CostReduction != 1 || r.Rows[2].CostReduction != 0.2 {
		t.Error("endpoints wrong")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig3ShapesDistinguishDistributions(t *testing.T) {
	r, err := Fig3(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CDFs) != 4 {
		t.Fatalf("cdfs = %d", len(r.CDFs))
	}
	at := func(name string, frac float64) float64 {
		for _, c := range r.CDFs {
			if c.Name != name {
				continue
			}
			idx := int(frac * float64(len(c.X)-1))
			return c.Y[idx]
		}
		t.Fatalf("cdf %q missing", name)
		return 0
	}
	// Hotspot: 20% of key IDs hold 90% of probability.
	if v := at("hotspot", 0.2); v < 0.85 {
		t.Errorf("hotspot CDF at 20%% keys = %.2f, want ≥0.85", v)
	}
	// Zipfian concentrates at low IDs; scrambled does not.
	if at("zipfian", 0.1) <= at("scrambled_zipfian", 0.1) {
		t.Error("zipfian should concentrate at low key IDs; scrambled should not")
	}
	// Latest is near-diagonal: at 50% of keys ≈ 50% of probability.
	if v := at("latest", 0.5); v < 0.35 || v > 0.7 {
		t.Errorf("latest CDF at 50%% keys = %.2f, want near diagonal", v)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Ordering(t *testing.T) {
	r := Fig4(1)
	if len(r.CDFs) != 3 {
		t.Fatalf("cdfs = %d", len(r.CDFs))
	}
	// Median (q=0.5 is index 6 of the quantile list) sizes must be
	// ordered caption < text < thumbnail (log10 ≈ 3, 4, 5).
	med := func(i int) float64 { return r.CDFs[i].X[6] }
	if !(med(0) < med(1) && med(1) < med(2)) {
		t.Errorf("size medians not ordered: %.2f %.2f %.2f", med(0), med(1), med(2))
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig5aShapes(t *testing.T) {
	r, err := Fig5a(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		// Measured throughput grows from slow to fast baseline.
		slow := c.MeasTput[0]
		fast := c.MeasTput[len(c.MeasTput)-1]
		if fast <= slow {
			t.Errorf("%s: fast %.0f not above slow %.0f", c.Workload, fast, slow)
		}
		// Estimate endpoints bracket the same range (within noise).
		if len(c.EstTput) < 10 {
			t.Errorf("%s: estimate curve too sparse", c.Workload)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trending") {
		t.Error("render missing workload labels")
	}
}

func TestFig5bWriteHeavyLessImpacted(t *testing.T) {
	r, err := Fig5b(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(c *CurveComparison) float64 {
		return c.MeasTput[len(c.MeasTput)-1] / c.MeasTput[0]
	}
	timeline, edit := r.Curves[0], r.Curves[1]
	if ratio(edit) >= ratio(timeline) {
		t.Errorf("write-heavy improvement %.3f not below read-only %.3f",
			ratio(edit), ratio(timeline))
	}
}

func TestFig5cLargeRecordsBiggerKnee(t *testing.T) {
	r, err := Fig5c(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(c *CurveComparison) float64 {
		return c.MeasTput[len(c.MeasTput)-1] / c.MeasTput[0]
	}
	big, mid, small := r.Curves[0], r.Curves[1], r.Curves[2]
	if !(ratio(big) > ratio(mid) && ratio(mid) > ratio(small)) {
		t.Errorf("size impact not ordered: 100KB %.3f, 10KB %.3f, 1KB %.3f",
			ratio(big), ratio(mid), ratio(small))
	}
}

func TestFig8aAccuracy(t *testing.T) {
	r, err := Fig8a(Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 3 {
		t.Fatalf("engines = %d", len(r.Errors))
	}
	// Paper: 0.07% median at full scale; Quick scale has 10× fewer
	// requests so noise averages less — allow 1%.
	if r.OverallMedianPct > 1.0 {
		t.Errorf("overall median error %.3f%% too high", r.OverallMedianPct)
	}
	for name, b := range r.Boxes {
		if b.N == 0 {
			t.Errorf("%s: no samples", name)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestFig8aKernelMatchesPerOp: Fig 8a's grid (every Table III workload
// on every engine, profiled and validated at sampled tierings) gives the
// same reports and validation points with the batched kernel as with
// server.Config.DisableBatchReplay, at GOMAXPROCS 1 and 2. Validate
// prices every leg, repetition and point from one LLC walk on a producer
// goroutine, which must make progress with a single P as well.
func TestFig8aKernelMatchesPerOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const seed = 42
	type outcome struct {
		rep    *core.Report
		points []core.ValidationPoint
	}
	measure := func(procs int, perOp bool, e server.Engine, w *ycsb.Workload) outcome {
		runtime.GOMAXPROCS(procs)
		cfg := Quick.coreConfig(e, seed)
		cfg.Server.DisableBatchReplay = perOp
		rep, err := core.Profile(context.Background(), cfg, w, core.Touch, 0)
		if err != nil {
			t.Fatalf("%v/%s: %v", e, w.Spec.Name, err)
		}
		points, err := core.Validate(context.Background(), cfg, w, rep.Curve, rep.Ordering, Quick.CurveSamples)
		if err != nil {
			t.Fatalf("%v/%s: %v", e, w.Spec.Name, err)
		}
		return outcome{rep, points}
	}
	for _, e := range server.Engines() {
		for _, spec := range ycsb.TableIII(seed) {
			w, err := Quick.workload(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := measure(1, true, e, w)
			for _, c := range []struct {
				procs int
				perOp bool
			}{{1, false}, {2, false}, {2, true}} {
				if got := measure(c.procs, c.perOp, e, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%s at GOMAXPROCS=%d, per-op %v: diverged from the per-op run at GOMAXPROCS=1:\n  got:  %+v\n  want: %+v",
						e, spec.Name, c.procs, c.perOp, got.points, want.points)
				}
			}
		}
	}
}

func TestFig8bSensitivityOrdering(t *testing.T) {
	r, err := Fig8b(Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Slowdowns[server.DynamoLike.String()]
	re := r.Slowdowns[server.RedisLike.String()]
	m := r.Slowdowns[server.MemcachedLike.String()]
	if !(d > re && re > m) {
		t.Errorf("slowdowns not ordered: dynamo %.2f, redis %.2f, memcached %.2f", d, re, m)
	}
	if m > 1.12 {
		t.Errorf("memcached slowdown %.2f; should be barely influenced", m)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig8cdeLatencies(t *testing.T) {
	r, err := Fig8cde(Quick, server.RedisLike, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cost) != len(r.AvgMeasNs) || len(r.Cost) != len(r.P99Ns) {
		t.Fatal("ragged series")
	}
	// Average latency estimate is accurate.
	if r.AvgErrMedianPct > 2 {
		t.Errorf("avg latency median error %.2f%% too high", r.AvgErrMedianPct)
	}
	// Tails exceed averages everywhere.
	for i := range r.Cost {
		if r.P99Ns[i] < r.AvgMeasNs[i] {
			t.Errorf("p99 below mean at point %d", i)
		}
		if r.P99Ns[i] < r.P95Ns[i] {
			t.Errorf("p99 below p95 at point %d", i)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig8fMnemoTGain(t *testing.T) {
	r, err := Fig8f(Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.TieredGainPct <= 0 {
		t.Errorf("MnemoT gain %.2f%% at cost 0.5 not positive", r.TieredGainPct)
	}
	if r.GainAt76Pct < -0.5 {
		t.Errorf("MnemoT gain %.2f%% at 70:30 should not be negative", r.GainAt76Pct)
	}
	if r.MnemoTMedianErrPct > 2 {
		t.Errorf("MnemoT estimate median error %.3f%% too high on thumbnails", r.MnemoTMedianErrPct)
	}
	// Mixed sizes stress the global-average model; it must still stay
	// within single-digit percent.
	if r.MixedSizeMedianErrPct > 8 {
		t.Errorf("mixed-size MnemoT error %.3f%% too high", r.MixedSizeMedianErrPct)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(Quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	mem := server.MemcachedLike.String()
	red := server.RedisLike.String()
	dyn := server.DynamoLike.String()
	// Memcached reaches the floor on every workload.
	for _, wl := range []string{"trending", "news_feed", "timeline", "edit_thumbnail", "trending_preview"} {
		if c := r.Cost(wl, mem); c > 0.25 {
			t.Errorf("memcached %s cost %.3f; should reach the 0.2 floor", wl, c)
		}
	}
	// News Feed allows the least savings for Redis; Trending much more.
	if r.Cost("news_feed", red) <= r.Cost("trending", red) {
		t.Error("news_feed should cost more than trending on redis-like")
	}
	// Edit Thumbnail saves at least as much as Timeline (writes cheap).
	if r.Cost("edit_thumbnail", red) > r.Cost("timeline", red)+0.02 {
		t.Error("edit_thumbnail should not cost more than timeline")
	}
	// DynamoDB saves least on every workload.
	for _, wl := range []string{"trending", "news_feed", "timeline"} {
		if r.Cost(wl, dyn) < r.Cost(wl, red) {
			t.Errorf("%s: dynamo cost %.3f below redis %.3f", wl, r.Cost(wl, dyn), r.Cost(wl, red))
		}
	}
	if r.Cost("missing", red) != 1 {
		t.Error("missing pair should default to 1")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Overheads(t *testing.T) {
	r, err := Table4(Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reports) != 3 {
		t.Fatalf("reports = %d", len(r.Reports))
	}
	mnemo, instr, tahoe := r.Reports[0], r.Reports[1], r.Reports[2]
	if !(mnemo.Total() < instr.Total() && mnemo.Total() < tahoe.Total()) {
		t.Errorf("MnemoT not cheapest: %v vs %v vs %v",
			mnemo.Total(), instr.Total(), tahoe.Total())
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDownsamplePreservesTradeoffs(t *testing.T) {
	r, err := Downsample(Quick, 10, []int{2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Advised cost from the sampled trace stays close to full-trace.
		if diff := row.AdvisedCost - r.FullCost; diff > 0.15 || diff < -0.15 {
			t.Errorf("factor %d: advised cost %.3f drifts from full %.3f",
				row.Factor, row.AdvisedCost, r.FullCost)
		}
		// The estimate still works on the sampled trace.
		if row.MedianErrPct > 2 {
			t.Errorf("factor %d: median err %.3f%%", row.Factor, row.MedianErrPct)
		}
		if row.CurveDeviationPct > 20 {
			t.Errorf("factor %d: curve deviation %.1f%%", row.Factor, row.CurveDeviationPct)
		}
	}
	if _, err := Downsample(Quick, 10, []int{0}); err == nil {
		t.Error("factor 0 accepted")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationLLC(t *testing.T) {
	r, err := AblationLLC(Quick, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Both configurations keep the estimate accurate.
	if r.WithLLC.MedianErrPct > 2 || r.WithoutLLC.MedianErrPct > 2 {
		t.Errorf("errors: with %.3f%%, without %.3f%%", r.WithLLC.MedianErrPct, r.WithoutLLC.MedianErrPct)
	}
	// Removing the LLC makes SlowMem look worse (no hot-key absorption).
	if r.WithoutLLC.Slowdown < r.WithLLC.Slowdown {
		t.Errorf("no-LLC slowdown %.2f below with-LLC %.2f", r.WithoutLLC.Slowdown, r.WithLLC.Slowdown)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationNoise(t *testing.T) {
	r, err := AblationNoise(Quick, 12, []float64{0, 0.02, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("rows wrong")
	}
	// Zero noise → near-zero error; error grows with sigma.
	if r.Rows[0].MedianErrPct > 0.2 {
		t.Errorf("noise-free median error %.4f%% too high", r.Rows[0].MedianErrPct)
	}
	if r.Rows[2].MedianErrPct < r.Rows[0].MedianErrPct {
		t.Error("error should grow with noise")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationKnapsack(t *testing.T) {
	r, err := AblationKnapsack(Quick, 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExactCoverage < r.GreedyCoverage-1e-9 {
		t.Errorf("exact %.4f below greedy %.4f", r.ExactCoverage, r.GreedyCoverage)
	}
	// The paper's justification for greedy: it is near-optimal at
	// key-value granularity.
	if r.GreedyCoverage < 0.95*r.ExactCoverage {
		t.Errorf("greedy %.4f much worse than exact %.4f", r.GreedyCoverage, r.ExactCoverage)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestExtTech(t *testing.T) {
	r, err := ExtTech(Quick, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	slow, _ := r.Row("SlowMem")
	cxl, ok := r.Row("CXL-DRAM")
	if !ok {
		t.Fatal("CXL row missing")
	}
	far, _ := r.Row("FarMemory")
	// CXL is fastest of the slow tiers; far memory slowest.
	if cxl.Slowdown >= slow.Slowdown {
		t.Errorf("CXL slowdown %.2f not below paper NVM %.2f", cxl.Slowdown, slow.Slowdown)
	}
	if far.Slowdown <= slow.Slowdown {
		t.Errorf("far memory slowdown %.2f not above paper NVM %.2f", far.Slowdown, slow.Slowdown)
	}
	// CXL tolerates near-total placement: advised cost close to its p.
	if cxl.AdvisedCost > cxl.PriceFactor+0.15 {
		t.Errorf("CXL advised cost %.3f far above its floor %.2f", cxl.AdvisedCost, cxl.PriceFactor)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestYCSBCore(t *testing.T) {
	r, err := YCSBCore(Quick, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// 1 KB records: every store tolerates SlowMem almost fully, so costs
	// sit near the 0.2 floor.
	for _, c := range r.Cells {
		if c.CostFactor > 0.5 {
			t.Errorf("%s/%s: cost %.3f suspiciously high for 1KB records",
				c.Workload, c.Engine, c.CostFactor)
		}
	}
	// F's RMW trace must profile without error and favor writes slightly.
	if r.Cost("ycsb_f", server.RedisLike.String()) > r.Cost("ycsb_c", server.RedisLike.String())+0.1 {
		t.Error("F (write-mixed) should not cost much more than C (read-only)")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestExtTails(t *testing.T) {
	r, err := ExtTails(Quick, server.RedisLike, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r.MedianP95ErrPct > 8 {
		t.Errorf("p95 median error %.2f%% too high", r.MedianP95ErrPct)
	}
	if r.MedianP99ErrPct > 12 {
		t.Errorf("p99 median error %.2f%% too high", r.MedianP99ErrPct)
	}
	for _, row := range r.Rows {
		if row.PredP95Ns <= 0 || row.PredP99Ns < row.PredP95Ns {
			t.Errorf("k=%d: implausible predictions %+v", row.KeysInFast, row)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestModeBExternalOrderings(t *testing.T) {
	r, err := ModeB(Quick, 16, []int{1, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	full, sparse := r.Rows[0], r.Rows[1]
	// Full-rate page profiling approximates MnemoT closely.
	if diff := full.AdvisedCost - r.MnemoTAdvisedCost; diff > 0.1 || diff < -0.1 {
		t.Errorf("full-rate external cost %.3f far from MnemoT %.3f",
			full.AdvisedCost, r.MnemoTAdvisedCost)
	}
	// Sparse sampling collects far fewer observations.
	if sparse.Samples >= full.Samples/50 {
		t.Errorf("sparse sampler took %d of %d samples", sparse.Samples, full.Samples)
	}
	// Sampled orderings must not beat the reference at equal cost by a
	// margin (they can only lose information).
	if sparse.EstTputAtHalfCost > r.MnemoTTputAtHalfCost*1.02 {
		t.Errorf("sparse ordering %.0f ops/s implausibly above MnemoT %.0f",
			sparse.EstTputAtHalfCost, r.MnemoTTputAtHalfCost)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ModeB(Quick, 16, []int{0}); err == nil {
		t.Error("rate 0 should fail")
	}
}

func TestAblationSizeAware(t *testing.T) {
	r, err := AblationSizeAware(Quick, 15)
	if err != nil {
		t.Fatal(err)
	}
	// The extension must repair the mixed-size bias substantially...
	if r.MixedSizeAwareErrPct >= r.MixedGlobalErrPct/2 {
		t.Errorf("size-aware %.3f%% not well below global %.3f%% on mixed sizes",
			r.MixedSizeAwareErrPct, r.MixedGlobalErrPct)
	}
	// ...and must not hurt the single-class case.
	if r.ThumbSizeAwareErrPct > r.ThumbGlobalErrPct+0.5 {
		t.Errorf("size-aware %.3f%% regressed thumbnails vs global %.3f%%",
			r.ThumbSizeAwareErrPct, r.ThumbGlobalErrPct)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationAnchor(t *testing.T) {
	r, err := AblationAnchor(Quick, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Both anchors work; neither should be wildly off.
	if r.FastAnchorMedianErrPct > 2 || r.SlowAnchorMedianErrPct > 2 {
		t.Errorf("anchor errors: fast %.3f%%, slow %.3f%%",
			r.FastAnchorMedianErrPct, r.SlowAnchorMedianErrPct)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}
