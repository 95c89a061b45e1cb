package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

// testWorkload returns a scaled-down Trending workload: the full 10k-key
// dataset makes each profiling run ~100ms, so tests use 1k keys.
func testWorkload(seed int64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "trending_small", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeThumbnail, Seed: seed,
	})
}

func mixedWorkload(seed int64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "edit_small", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.ScrambledZipfian},
		ReadRatio: 0.5, Sizes: ycsb.SizeThumbnail, Seed: seed,
	})
}

func TestSensitivityBaselines(t *testing.T) {
	w := testWorkload(1)
	b, err := MeasureBaselines(context.Background(), DefaultConfig(server.RedisLike, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fast.Runtime <= 0 || b.Slow.Runtime <= 0 {
		t.Fatal("baselines not measured")
	}
	if b.SlowdownAllSlow() <= 1 {
		t.Fatalf("all-slow slowdown %.3f not above 1", b.SlowdownAllSlow())
	}
	if b.Fast.AvgReadNs >= b.Slow.AvgReadNs {
		t.Fatal("fast reads not faster than slow reads")
	}
}

func TestBaselinesZeroValue(t *testing.T) {
	var b Baselines
	if b.SlowdownAllSlow() != 0 {
		t.Fatal("zero baselines should report 0 slowdown")
	}
}

func TestTouchOrderingCoversAllKeys(t *testing.T) {
	w := testWorkload(2)
	ord := TouchOrdering(w)
	if ord.Name != "touch" {
		t.Error("name wrong")
	}
	if len(ord.Keys) != 1000 {
		t.Fatalf("keys = %d", len(ord.Keys))
	}
	if ord.TotalBytes() != w.Dataset.TotalBytes {
		t.Fatal("ordering bytes != dataset bytes")
	}
	// First key of the ordering is the first op's key.
	if ord.Keys[0].Key != w.Dataset.Records[w.Ops[0].Key].Key {
		t.Fatal("touch ordering does not start at first touched key")
	}
}

func TestMnemoTOrderingIsWeightSorted(t *testing.T) {
	w := mixedWorkload(3)
	ord := MnemoTOrdering(w)
	if ord.Name != "mnemot" {
		t.Error("name wrong")
	}
	for i := 1; i < len(ord.Keys); i++ {
		if ord.Keys[i-1].Weight() < ord.Keys[i].Weight()-1e-15 {
			t.Fatalf("weights not descending at %d: %v < %v",
				i, ord.Keys[i-1].Weight(), ord.Keys[i].Weight())
		}
	}
}

func TestExternalOrdering(t *testing.T) {
	w := testWorkload(4)
	tiered := []string{w.Dataset.Records[5].Key, w.Dataset.Records[2].Key}
	ord, err := ExternalOrdering(w, tiered)
	if err != nil {
		t.Fatal(err)
	}
	if ord.Keys[0].Key != tiered[0] || ord.Keys[1].Key != tiered[1] {
		t.Fatal("external prefix not preserved")
	}
	if len(ord.Keys) != 1000 {
		t.Fatal("remaining keys not appended")
	}
	if _, err := ExternalOrdering(w, []string{"bogus"}); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ExternalOrdering(w, []string{tiered[0], tiered[0]}); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestKeyStatWeight(t *testing.T) {
	k := KeyStat{Size: 100, Reads: 30, Writes: 20}
	if k.Accesses() != 50 {
		t.Fatal("accesses wrong")
	}
	if k.Weight() != 0.5 {
		t.Fatalf("weight = %v", k.Weight())
	}
	zero := KeyStat{Size: 0, Reads: 3}
	if zero.Weight() != 3 {
		t.Fatalf("zero-size weight = %v", zero.Weight())
	}
}

func TestEstimateCurveShape(t *testing.T) {
	w := testWorkload(5)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 5), w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Curve
	if len(c.Points) != 1001 {
		t.Fatalf("points = %d", len(c.Points))
	}
	// Endpoints must coincide with the measured baselines.
	if math.Abs(float64(c.SlowOnly().EstRuntime)-float64(c.Baselines.Slow.Runtime)) >
		0.02*float64(c.Baselines.Slow.Runtime) {
		t.Errorf("slow endpoint %v far from measured %v",
			c.SlowOnly().EstRuntime, c.Baselines.Slow.Runtime)
	}
	if c.FastOnly().EstRuntime != c.Baselines.Fast.Runtime {
		t.Errorf("fast endpoint %v != measured %v",
			c.FastOnly().EstRuntime, c.Baselines.Fast.Runtime)
	}
	// Cost factor is monotone from p to 1.
	if math.Abs(c.SlowOnly().CostFactor-0.2) > 1e-12 || math.Abs(c.FastOnly().CostFactor-1) > 1e-12 {
		t.Fatalf("cost endpoints: %v, %v", c.SlowOnly().CostFactor, c.FastOnly().CostFactor)
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].CostFactor < c.Points[i-1].CostFactor {
			t.Fatal("cost factor not monotone")
		}
		if c.Points[i].EstRuntime > c.Points[i-1].EstRuntime {
			t.Fatal("read-only estimate runtime must not increase with more FastMem")
		}
	}
	// Trending knee: at 36% cost (hot 20% of bytes in Fast) nearly all the
	// throughput gain is realized.
	knee := c.PointAtCost(0.37)
	gain := func(p CurvePoint) float64 {
		return (p.EstThroughputOps - c.SlowOnly().EstThroughputOps) /
			(c.FastOnly().EstThroughputOps - c.SlowOnly().EstThroughputOps)
	}
	// Touch order interleaves some early-touched cold keys with the hot
	// set, so the knee is slightly softer than the pure hot-ops share.
	if g := gain(knee); g < 0.7 {
		t.Errorf("at 36%% cost only %.2f of throughput gain realized; hotspot knee missing", g)
	}
	if g := gain(c.PointAtCost(0.55)); g < 0.9 {
		t.Errorf("at 55%% cost only %.2f of throughput gain realized", g)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// The headline claim (Fig 8a): the estimate tracks real executions
	// with sub-percent error.
	for _, tc := range []struct {
		name string
		w    *ycsb.Workload
	}{
		{"trending", testWorkload(6)},
		{"mixed", mixedWorkload(7)},
	} {
		cfg := DefaultConfig(server.RedisLike, 6)
		rep, err := Profile(context.Background(), cfg, tc.w, Touch, 0)
		if err != nil {
			t.Fatal(err)
		}
		points, err := Validate(context.Background(), cfg, tc.w, rep.Curve, rep.Ordering, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) == 0 {
			t.Fatal("no validation points")
		}
		errs := AbsErrors(points)
		med := stats.Median(errs)
		if med > 1.5 {
			t.Errorf("%s: median |throughput error| %.3f%% too high", tc.name, med)
		}
		for _, p := range points {
			if math.Abs(p.AvgLatencyErrPct) > 5 {
				t.Errorf("%s: avg latency error %.2f%% at k=%d", tc.name, p.AvgLatencyErrPct, p.Point.KeysInFast)
			}
		}
	}
}

func TestAdvisorFindsSweetSpot(t *testing.T) {
	w := testWorkload(8)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 8), w, Touch, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Advice == nil {
		t.Fatal("no advice with SLO set")
	}
	a := *rep.Advice
	if !a.Satisfiable {
		t.Fatal("10% SLO unsatisfiable")
	}
	// Trending on redis-like: hot 20% of keys suffices → cost well below 1.
	if a.Point.CostFactor > 0.6 {
		t.Errorf("advised cost %.3f; expected deep savings for trending", a.Point.CostFactor)
	}
	if a.Point.CostFactor < 0.2 {
		t.Errorf("advised cost %.3f below the p=0.2 floor", a.Point.CostFactor)
	}
	if math.Abs(a.CostSavings-(1-a.Point.CostFactor)) > 1e-12 {
		t.Error("savings inconsistent")
	}
	// SLO respected by the estimate.
	budget := float64(rep.Curve.FastOnly().EstRuntime) * 1.10
	if float64(a.Point.EstRuntime) > budget {
		t.Error("advised point violates SLO budget")
	}
}

func TestAdviseErrors(t *testing.T) {
	if _, err := Advise(&Curve{}, 0.1); err == nil {
		t.Error("empty curve accepted")
	}
	w := testWorkload(9)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 9), w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(rep.Curve, -0.1); err == nil {
		t.Error("negative slowdown accepted")
	}
}

func TestPlacementEngine(t *testing.T) {
	w := testWorkload(10)
	ord := TouchOrdering(w)
	p, err := PlacementFor(ord, CurvePoint{KeysInFast: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.FastKeyCount() != 10 {
		t.Fatalf("fast keys = %d", p.FastKeyCount())
	}
	if _, err := PlacementFor(ord, CurvePoint{KeysInFast: -1}); err == nil {
		t.Error("negative point accepted")
	}
	if _, err := PlacementFor(ord, CurvePoint{KeysInFast: 9999}); err == nil {
		t.Error("oversized point accepted")
	}
	allFast, err := PlacementFor(ord, CurvePoint{KeysInFast: len(ord.Keys)})
	if err != nil || allFast.Default().String() != "FastMem" {
		t.Error("full prefix should be AllFast")
	}
	allSlow, err := PlacementFor(ord, CurvePoint{KeysInFast: 0})
	if err != nil || allSlow.Default().String() != "SlowMem" {
		t.Error("empty prefix should be AllSlow")
	}
	d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 1))
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	if d.Instance(0).Len() != 10 {
		t.Fatalf("populated fast instance has %d keys", d.Instance(0).Len())
	}
}

func TestCurveCSVRoundTrip(t *testing.T) {
	w := testWorkload(11)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 11), w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Curve.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	points, err := ReadCurveCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rep.Curve.Points) {
		t.Fatalf("points = %d, want %d", len(points), len(rep.Curve.Points))
	}
	for i, p := range points {
		orig := rep.Curve.Points[i]
		if p.LastKey != orig.LastKey {
			t.Fatalf("row %d key %q != %q", i, p.LastKey, orig.LastKey)
		}
		if math.Abs(p.CostFactor-orig.CostFactor) > 1e-5 {
			t.Fatalf("row %d cost drift", i)
		}
	}
}

func TestReadCurveCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"bad header": "a,b,c\n",
		"bad tput":   "key,est_throughput_ops,cost_factor\nk,xx,0.5\n",
		"bad cost":   "key,est_throughput_ops,cost_factor\nk,5,yy\n",
		"ragged":     "key,est_throughput_ops,cost_factor\nk,5\n",
	} {
		if _, err := ReadCurveCSV(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestProfileArgErrors(t *testing.T) {
	w := testWorkload(12)
	cfg := DefaultConfig(server.RedisLike, 12)
	if _, err := Profile(context.Background(), cfg, w, nil, 0); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Profile(context.Background(), cfg, nil, Touch, 0); err == nil {
		t.Error("nil workload accepted")
	}
	bad := cfg
	bad.PriceFactor = 2
	if _, err := Profile(context.Background(), bad, w, Touch, 0); err == nil {
		t.Error("bad price factor accepted")
	}
	bad2 := cfg
	bad2.Runs = -1
	if _, err := Profile(context.Background(), bad2, w, Touch, 0); err == nil {
		t.Error("negative runs accepted")
	}
}

func TestProfileWithExternalOrdering(t *testing.T) {
	w := testWorkload(13)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 13), w, External([]string{w.Dataset.Records[0].Key}), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "external" || rep.Curve.Ordering != "external" {
		t.Error("policy/ordering labels wrong")
	}
}

func TestPolicyNames(t *testing.T) {
	if Touch.Name() != "touch" || MnemoT.Name() != "mnemot" ||
		External(nil).Name() != "external" {
		t.Error("policy names wrong")
	}
}

func TestEstimateEngineValidation(t *testing.T) {
	if _, err := NewEstimateEngine(-1); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := NewEstimateEngine(1.5); err == nil {
		t.Error("price 1.5 accepted")
	}
	if _, err := NewEstimateEngine(1); err != nil {
		t.Errorf("price 1 (boundary of (0,1]) rejected: %v", err)
	}
	ee, err := NewEstimateEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(14)
	ord := TouchOrdering(w)
	// Unmeasured baselines rejected.
	if _, err := ee.Curve(w, Baselines{}, ord); err == nil {
		t.Error("empty baselines accepted")
	}
	// Ordering/dataset mismatch rejected.
	short := Ordering{Name: "touch", Keys: ord.Keys[:5]}
	b, err := MeasureBaselines(context.Background(), DefaultConfig(server.RedisLike, 14), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ee.Curve(w, b, short); err == nil {
		t.Error("short ordering accepted")
	}
}

func TestValidateArgErrors(t *testing.T) {
	w := testWorkload(15)
	cfg := DefaultConfig(server.RedisLike, 15)
	rep, err := Profile(context.Background(), cfg, w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(context.Background(), cfg, w, rep.Curve, rep.Ordering, 0); err == nil {
		t.Error("samples=0 accepted")
	}
	shortOrd := Ordering{Keys: rep.Ordering.Keys[:5]}
	if _, err := Validate(context.Background(), cfg, w, rep.Curve, shortOrd, 3); err == nil {
		t.Error("mismatched ordering accepted")
	}
}

func TestMnemoTBeatsTouchOnMixedSizes(t *testing.T) {
	// Fig 8f: the tiered ordering reaches higher throughput at equal cost.
	// The advantage is largest where record sizes vary (small hot keys are
	// cheap to promote), so use the preview mixture on the curve's steep
	// region.
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "preview_small", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeTrendingPreview, Seed: 16,
	})
	cfg := DefaultConfig(server.RedisLike, 16)
	touch, err := Profile(context.Background(), cfg, w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := Profile(context.Background(), cfg, w, MnemoT, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []float64{0.3, 0.4, 0.5} {
		tp := touch.Curve.PointAtCost(cost).EstThroughputOps
		mp := tiered.Curve.PointAtCost(cost).EstThroughputOps
		if mp <= tp {
			t.Errorf("at cost %.2f: MnemoT %.0f ops/s not above touch %.0f ops/s", cost, mp, tp)
		}
	}
}
