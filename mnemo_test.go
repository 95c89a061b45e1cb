package mnemo

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// smallWorkload keeps facade tests fast: 1k keys instead of the paper's
// 10k.
func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadSpec{
		Name: "facade_test", Keys: 1000, Requests: 8000,
		Dist:      DistSpec{Kind: Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: SizeThumbnail, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := WorkloadByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Ops) != 100000 || len(w.Dataset.Records) != 10000 {
			t.Errorf("%s: wrong scale (%d ops, %d keys)", name, len(w.Ops), len(w.Dataset.Records))
		}
	}
	if _, err := WorkloadByName("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(WorkloadNames()) != 5 {
		t.Errorf("Table III should have 5 workloads, got %d", len(WorkloadNames()))
	}
}

func TestProfileEndToEnd(t *testing.T) {
	w := smallWorkload(t)
	rep, err := Profile(w, Options{Store: RedisLike, Seed: 1, SLO: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Advice == nil {
		t.Fatal("SLO set but no advice")
	}
	if rep.Advice.Point.CostFactor >= 1 || rep.Advice.Point.CostFactor < DefaultPriceFactor {
		t.Fatalf("advised cost %.3f out of range", rep.Advice.Point.CostFactor)
	}
	if rep.Curve == nil || len(rep.Curve.Points) != 1001 {
		t.Fatal("curve missing or wrong size")
	}
	// CSV output works.
	var buf bytes.Buffer
	if err := rep.Curve.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "key,est_throughput_ops,cost_factor") {
		t.Error("CSV header wrong")
	}
}

func TestProfileMnemoTMode(t *testing.T) {
	w := smallWorkload(t)
	rep, err := Profile(w, Options{Store: RedisLike, Seed: 2, Policy: "mnemot"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Curve.Ordering != "mnemot" {
		t.Fatalf("ordering = %q", rep.Curve.Ordering)
	}
}

func TestProfileWithTiering(t *testing.T) {
	w := smallWorkload(t)
	keys := []string{w.Dataset.Records[3].Key, w.Dataset.Records[1].Key}
	rep, err := ProfileWithTiering(w, keys, Options{Store: MemcachedLike, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Curve.Ordering != "external" {
		t.Fatalf("ordering = %q", rep.Curve.Ordering)
	}
	if rep.Ordering.Keys[0].Key != keys[0] {
		t.Error("external priority not honored")
	}
	if _, err := ProfileWithTiering(w, []string{"bogus"}, Options{}); err == nil {
		t.Error("bad external key accepted")
	}
}

func TestAdviseReusesCurve(t *testing.T) {
	w := smallWorkload(t)
	rep, err := Profile(w, Options{Store: RedisLike, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Advise(rep.Curve, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Advise(rep.Curve, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Point.CostFactor > tight.Point.CostFactor {
		t.Fatalf("looser SLO should not cost more: %.3f vs %.3f",
			loose.Point.CostFactor, tight.Point.CostFactor)
	}
}

func TestAdviseLatencyAndTailsFacade(t *testing.T) {
	w := smallWorkload(t)
	rep, err := Profile(w, Options{Store: RedisLike, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	budget := rep.Curve.SlowOnly().EstAvgLatencyNs * 0.95
	a, err := AdviseLatency(rep.Curve, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Satisfiable || a.Point.EstAvgLatencyNs > budget {
		t.Fatalf("latency advice broken: %+v", a)
	}
	tails, err := EstimateTails(rep, []int{0, 500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tails) != 3 {
		t.Fatalf("tails = %d", len(tails))
	}
	for _, tp := range tails {
		if tp.P99Ns < tp.P95Ns || tp.P95Ns < tp.P50Ns || tp.P50Ns <= 0 {
			t.Fatalf("percentiles disordered: %+v", tp)
		}
	}
}

func TestCostReductionFacade(t *testing.T) {
	if got := CostReduction(20, 100, 0.2); math.Abs(got-0.36) > 1e-12 {
		t.Fatalf("R = %v", got)
	}
}

func TestWorkloadCSVRoundTripViaFacade(t *testing.T) {
	w := smallWorkload(t)
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(w.Ops) {
		t.Fatal("ops lost in round trip")
	}
}

func TestEngineHelpers(t *testing.T) {
	if len(Engines()) != 3 {
		t.Fatal("expected 3 engines")
	}
	e, ok := EngineByName("dynamolike")
	if !ok || e != DynamoLike {
		t.Fatal("EngineByName broken")
	}
	if _, ok := EngineByName("x"); ok {
		t.Fatal("unknown engine resolved")
	}
}

func TestNoiseOverrides(t *testing.T) {
	w := smallWorkload(t)
	// Disabled noise: two identical profiles agree exactly.
	a, err := Profile(w, Options{Store: RedisLike, Seed: 9, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile(w, Options{Store: RedisLike, Seed: 9, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Baselines.Fast.Runtime != b.Baselines.Fast.Runtime {
		t.Fatal("noise-free profiles differ")
	}
}
