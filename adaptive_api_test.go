package mnemo

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/server"
)

// TestEpochZeroCoreEquivalence pins the zero-value static guarantee at
// the pipeline level: a core config carrying an adaptive source with
// EpochOps = 0 — migration knobs set, and therefore inert — produces a
// report, curve CSV and JSON summary byte-identical to the plain static
// pipeline's.
func TestEpochZeroCoreEquivalence(t *testing.T) {
	w := tinyAPIWorkload(t)
	pol, err := registry.New("adaptive-freq", 9)
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := core.AsEpochPolicy(pol)
	if !ok {
		t.Fatal("adaptive-freq is not an EpochPolicy")
	}
	ctx := context.Background()
	staticCfg := core.DefaultConfig(server.RedisLike, 9)
	base, err := core.Profile(ctx, staticCfg, w, pol, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	adCfg := staticCfg
	adCfg.Server.Adaptive = ep
	adCfg.Server.EpochOps = 0
	adCfg.Server.MigrationCostPerByte = 3
	adCfg.Server.MigrationBudget = 1 << 20
	got, err := core.Profile(ctx, adCfg, w, pol, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("EpochOps=0 pipeline report diverged from the static pipeline")
	}
	var baseCSV, gotCSV bytes.Buffer
	if err := base.Curve.WriteCSV(&baseCSV); err != nil {
		t.Fatal(err)
	}
	if err := got.Curve.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatal("curve CSV bytes diverged")
	}
	baseJSON, err := json.Marshal(base.Summary(16))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Summary(16))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseJSON, gotJSON) {
		t.Fatal("JSON summary bytes diverged")
	}
}

// driftAPIWorkload is a hot-set-drift trace long enough for several
// epochs, exercised through the public API.
func driftAPIWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadSpec{
		Name: "apidrift", Keys: 300, Requests: 3 * 4096,
		Dist:      DistSpec{Kind: HotSetDrift, HotSetFraction: 0.1, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: SizeFixed10KB, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMeasureAdaptive drives the public adaptive-measurement seam end to
// end: profile with an adaptive policy, measure the advised placement
// both ways, and check the migration ledger.
func TestMeasureAdaptive(t *testing.T) {
	w := driftAPIWorkload(t)
	// DynamoLike is the memory-sensitive engine, so a tight SLO advises a
	// genuinely mixed placement for the adaptive run to reshape.
	opts := Options{
		Store: DynamoLike, Seed: 13, SLO: 0.01,
		Policy: "adaptive-freq", EpochOps: 4096, MigrationCostPerByte: 0.5,
	}
	rep, err := Profile(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := MeasureAdaptive(context.Background(), w, rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Static.Epochs != 0 || ac.Static.MovesApplied != 0 {
		t.Fatalf("static leg adapted: %+v", ac.Static)
	}
	if ac.Adaptive.Epochs != 3 {
		t.Fatalf("adaptive leg served %d epochs, want 3", ac.Adaptive.Epochs)
	}
	if ac.Adaptive.MovesApplied == 0 || ac.Adaptive.MigratedBytes == 0 {
		t.Fatalf("drifting hot set produced no migrations: %+v", ac.Adaptive)
	}
	if want := float64(ac.Adaptive.MigratedBytes) * 0.5; ac.Adaptive.MigrationNs != want {
		t.Fatalf("migration cost %v ns, want %v", ac.Adaptive.MigrationNs, want)
	}
	if g := ac.RuntimeGain(); g < -1 || g > 10 {
		t.Fatalf("runtime gain %v out of any plausible range", g)
	}
}

// TestMeasureAdaptiveMatchesSerialLegs: MeasureAdaptive runs its two
// measured legs concurrently on a shared worker budget; each must be
// bit-identical to the same leg executed alone, back to back, for single
// and repeated (Runs-fan-out) measurements.
func TestMeasureAdaptiveMatchesSerialLegs(t *testing.T) {
	w := driftAPIWorkload(t)
	ctx := context.Background()
	for _, runs := range []int{1, 3} {
		opts := Options{
			Store: DynamoLike, Seed: 13, SLO: 0.01, Runs: runs,
			Policy: "adaptive-freq", EpochOps: 4096, MigrationCostPerByte: 0.5,
		}
		rep, err := Profile(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := MeasureAdaptive(ctx, w, rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, err := opts.coreConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		var pe core.PlacementEngine
		placement, err := pe.PlacementFor(rep.Ordering, rep.Advice.Point)
		if err != nil {
			t.Fatal(err)
		}
		staticCfg := cfg.Server
		staticCfg.Adaptive, staticCfg.EpochOps = nil, 0
		static, err := client.ExecuteMeanCtx(ctx, staticCfg, w, placement, cfg.Runs, 0)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := client.ExecuteMeanCtx(ctx, cfg.Server, w, placement, cfg.Runs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ac.Static, static) {
			t.Errorf("Runs %d: concurrent static leg diverged from the serial one", runs)
		}
		if !reflect.DeepEqual(ac.Adaptive, adaptive) {
			t.Errorf("Runs %d: concurrent adaptive leg diverged from the serial one", runs)
		}
	}
}

// TestMeasureAdaptiveErrors covers the seam's preconditions.
func TestMeasureAdaptiveErrors(t *testing.T) {
	w := driftAPIWorkload(t)
	static := Options{Store: DynamoLike, Seed: 13, SLO: 0.01}
	rep, err := Profile(w, static)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureAdaptive(context.Background(), w, rep, static); err == nil {
		t.Error("EpochOps 0 accepted")
	}
	adaptive := static
	adaptive.Policy, adaptive.EpochOps = "adaptive-freq", 4096
	noAdvice, err := Profile(w, Options{Store: DynamoLike, Seed: 13, Policy: "adaptive-freq", EpochOps: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureAdaptive(context.Background(), w, noAdvice, adaptive); err == nil {
		t.Error("advice-free report accepted")
	}
}
