package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mnemo/internal/server"
)

// goldenReport replays the pre-refactor monolithic Profile pipeline by
// composing the engines directly — Sensitivity → pattern function →
// Estimate → Advise, exactly the old profileWith sequence — and returns
// it next to the staged Session pipeline's report for the same inputs.
func goldenReport(t *testing.T, cfg Config, pol TieringPolicy, seed int64) (*Report, *Report) {
	t.Helper()
	w := testWorkload(seed)
	ncfg, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	// Legacy composition (the pre-Session profileWith sequence).
	b, err := MeasureBaselines(context.Background(), ncfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var ord Ordering
	switch pol.Name() {
	case "touch":
		ord = TouchOrdering(w)
	case "mnemot":
		ord = MnemoTOrdering(w)
	default:
		t.Fatalf("golden test has no legacy path for %q", pol.Name())
	}
	ee, err := NewEstimateEngine(ncfg.PriceFactor)
	if err != nil {
		t.Fatal(err)
	}
	ee.SetSizeAware(ncfg.SizeAwareEstimate)
	curve, err := ee.Curve(w, b, ord)
	if err != nil {
		t.Fatal(err)
	}
	legacy := &Report{
		Workload:  w.Spec.Name,
		Engine:    ncfg.Server.Engine.String(),
		Policy:    pol.Name(),
		Baselines: b,
		Ordering:  ord,
		Curve:     curve,
	}
	advice, err := Advise(curve, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	legacy.Advice = &advice

	// Staged pipeline.
	staged, err := Profile(context.Background(), cfg, w, pol, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	return legacy, staged
}

// TestSessionGoldenEquivalence holds the refactored staged pipeline to
// the pre-refactor outputs for both default policies: the report structs
// must be deeply equal and the curve CSVs byte-identical.
func TestSessionGoldenEquivalence(t *testing.T) {
	for _, pol := range []TieringPolicy{Touch, MnemoT} {
		cfg := DefaultConfig(server.RedisLike, 33)
		legacy, staged := goldenReport(t, cfg, pol, 33)
		if !reflect.DeepEqual(legacy.Baselines, staged.Baselines) {
			t.Fatalf("%s: baselines differ", pol.Name())
		}
		if !reflect.DeepEqual(legacy.Curve, staged.Curve) {
			t.Fatalf("%s: curves differ", pol.Name())
		}
		if !reflect.DeepEqual(legacy, staged) {
			t.Fatalf("%s: reports differ", pol.Name())
		}
		var want, got bytes.Buffer
		if err := legacy.Curve.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := staged.Curve.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: curve CSV not bit-identical", pol.Name())
		}
	}
}

// TestCompareMeasuresOnce is the artifact-reuse contract: profiling N
// policies through one session performs exactly one Fast+Slow baseline
// measurement, counted by the session.
func TestCompareMeasuresOnce(t *testing.T) {
	w := testWorkload(34)
	s, err := NewSession(DefaultConfig(server.RedisLike, 34), w)
	if err != nil {
		t.Fatal(err)
	}
	policies := []TieringPolicy{Touch, MnemoT, External([]string{w.Dataset.Records[3].Key})}
	reps, err := s.Compare(context.Background(), 0.10, policies...)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MeasureCount(); got != 1 {
		t.Fatalf("Compare over %d policies ran %d baseline measurements, want exactly 1",
			len(policies), got)
	}
	if len(reps) != len(policies) {
		t.Fatalf("got %d reports for %d policies", len(reps), len(policies))
	}
	for i, rep := range reps {
		if rep.Policy != policies[i].Name() {
			t.Errorf("report %d policy %q, want %q", i, rep.Policy, policies[i].Name())
		}
		if !reflect.DeepEqual(rep.Baselines, reps[0].Baselines) {
			t.Errorf("report %d does not share the session baselines", i)
		}
		if rep.Advice == nil {
			t.Errorf("report %d missing advice", i)
		}
	}
	// Every policy profiled through the session matches its one-shot
	// Profile twin — artifact reuse must not change results.
	solo, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 34), w, MnemoT, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo.Curve, reps[1].Curve) {
		t.Error("session-profiled MnemoT curve differs from one-shot Profile")
	}
}

// A plain session's cache serves one workload under hash 0: running the
// whole pipeline never walks the trace to fingerprint it, so the
// workload's memo holds no hash afterwards.
func TestPlainSessionSkipsWorkloadHash(t *testing.T) {
	w := testWorkload(38)
	s, err := NewSession(DefaultConfig(server.RedisLike, 38), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), MnemoT, 0.10); err != nil {
		t.Fatal(err)
	}
	if h, err := s.cache.WorkloadHash(w); h != 0 || err != nil {
		t.Fatalf("plain session cache hash = (%d, %v), want 0", h, err)
	}
	hashed := true
	w.Derived(workloadHashKey{}, func() (any, error) {
		hashed = false
		return uint64(0), nil
	})
	if hashed {
		t.Fatal("a plain session hashed its workload")
	}
}

func TestSessionStagedArtifacts(t *testing.T) {
	w := testWorkload(35)
	s, err := NewSession(DefaultConfig(server.RedisLike, 35), w)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeasureCount() != 0 {
		t.Fatal("fresh session should not have measured")
	}
	// Analyze alone does not trigger a measurement.
	ord, err := s.Analyze(context.Background(), Touch)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeasureCount() != 0 {
		t.Fatal("Analyze triggered a measurement")
	}
	if len(ord.Keys) != len(w.Dataset.Records) {
		t.Fatal("analyze ordering incomplete")
	}
	// Estimate pulls in the measurement; repeating any stage reuses it.
	c1, err := s.Estimate(context.Background(), Touch)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Estimate(context.Background(), Touch)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("estimate not cached")
	}
	if s.MeasureCount() != 1 {
		t.Fatalf("MeasureCount = %d after two estimates", s.MeasureCount())
	}
	// Advise against the cached curve with two different SLOs: still one
	// measurement.
	tight, err := s.Advise(context.Background(), Touch, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.Advise(context.Background(), Touch, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Point.CostFactor < loose.Point.CostFactor {
		t.Error("tighter SLO advised cheaper sizing")
	}
	if s.MeasureCount() != 1 {
		t.Fatal("Advise re-measured")
	}
	// Place materializes against the cached ordering.
	pl, err := s.Place(context.Background(), Touch, loose.Point)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.FastKeyCount(); got != loose.Point.KeysInFast {
		t.Fatalf("placement holds %d fast keys, advice said %d", got, loose.Point.KeysInFast)
	}
}

func TestSessionAndCompareErrors(t *testing.T) {
	w := testWorkload(36)
	if _, err := NewSession(DefaultConfig(server.RedisLike, 36), nil); err == nil {
		t.Error("nil workload accepted")
	}
	bad := DefaultConfig(server.RedisLike, 36)
	bad.PriceFactor = 2
	if _, err := NewSession(bad, w); err == nil {
		t.Error("bad config accepted")
	}
	s, err := NewSession(DefaultConfig(server.RedisLike, 36), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compare(context.Background(), 0); err == nil {
		t.Error("empty policy list accepted")
	}
	if _, err := s.Compare(context.Background(), 0, Touch, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := s.Compare(context.Background(), 0, Touch, Touch); err == nil {
		t.Error("duplicate policy names accepted")
	}
	if _, err := s.Analyze(context.Background(), nil); err == nil {
		t.Error("Analyze(nil) accepted")
	}
	if _, err := s.Estimate(context.Background(), nil); err == nil {
		t.Error("Estimate(nil) accepted")
	}
	// A policy returning an incomplete ordering is rejected.
	if _, err := s.Analyze(context.Background(), External([]string{"not-a-key"})); err == nil {
		t.Error("unknown external key accepted")
	}
}

func TestAdviseNilCurveErrors(t *testing.T) {
	if _, err := Advise(nil, 0.1); err == nil {
		t.Error("Advise(nil) accepted")
	}
	if _, err := AdviseLatency(nil, 1000); err == nil {
		t.Error("AdviseLatency(nil) accepted")
	}
	if _, err := AdviseLatency(&Curve{}, 1000); err == nil {
		t.Error("AdviseLatency(empty) accepted")
	}
}

// TestExternalOrderingEdgeCases pins the mode-2b input contract:
// duplicate tiered keys and unknown keys are rejected with descriptive
// errors, and an empty list degrades to pure dataset order.
func TestExternalOrderingEdgeCases(t *testing.T) {
	w := testWorkload(37)
	// Empty list: every key still covered, dataset order preserved.
	ord, err := ExternalOrdering(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.Keys) != len(w.Dataset.Records) {
		t.Fatalf("empty list ordering covers %d of %d keys", len(ord.Keys), len(w.Dataset.Records))
	}
	for i, k := range ord.Keys {
		if k.Key != w.Dataset.Records[i].Key {
			t.Fatalf("empty list ordering deviates from dataset order at %d", i)
		}
	}
	// Full-coverage list reverses cleanly.
	rev := make([]string, len(w.Dataset.Records))
	for i := range rev {
		rev[i] = w.Dataset.Records[len(rev)-1-i].Key
	}
	ord, err = ExternalOrdering(w, rev)
	if err != nil {
		t.Fatal(err)
	}
	if ord.Keys[0].Key != rev[0] || ord.Keys[len(rev)-1].Key != rev[len(rev)-1] {
		t.Fatal("full-coverage external list not preserved")
	}
	// Duplicates and unknowns are rejected, and the error names the key.
	if _, err := ExternalOrdering(w, []string{rev[0], rev[0]}); err == nil {
		t.Error("duplicate tiered key accepted")
	}
	if _, err := ExternalOrdering(w, []string{"ghost-key"}); err == nil {
		t.Error("key absent from the workload accepted")
	}
	// The same contract holds through the policy seam.
	if _, err := External([]string{"ghost-key"}).Order(context.Background(), w); err == nil {
		t.Error("policy seam let an unknown key through")
	}
}
