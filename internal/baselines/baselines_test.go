package baselines

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func smallTrending(seed int64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "trending_small", Keys: 500, Requests: 5000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeThumbnail, Seed: seed,
	})
}

func TestMnemoTOverhead(t *testing.T) {
	w := smallTrending(1)
	cfg := core.DefaultConfig(server.RedisLike, 1)
	rep, b, ord, err := MnemoTOverhead(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputPrep != 0 {
		t.Error("MnemoT needs no input prep")
	}
	if rep.BaselineTime != b.Fast.Runtime+b.Slow.Runtime {
		t.Error("baseline time must be exactly the two executions")
	}
	if rep.TieringTime >= rep.BaselineTime/100 {
		t.Error("tiering must be negligible next to the baselines")
	}
	if len(ord.Keys) != 500 || ord.Name != "mnemot" {
		t.Error("ordering wrong")
	}
	if !strings.Contains(rep.String(), "MnemoT") {
		t.Error("String() missing method name")
	}
}

func TestInstrumentedProfilerCostlier(t *testing.T) {
	w := smallTrending(2)
	cfg := core.DefaultConfig(server.RedisLike, 2)
	mnemo, _, mnemoOrd, err := MnemoTOverhead(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	instr, instrOrd, err := InstrumentedProfilerOverhead(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Table IV: MnemoT has the lowest overhead at every stage.
	if instr.Total() <= mnemo.Total() {
		t.Fatalf("instrumented total %v not above MnemoT %v", instr.Total(), mnemo.Total())
	}
	if instr.InputPrep <= mnemo.InputPrep {
		t.Error("instrumented prep should exceed MnemoT's zero prep")
	}
	// ~40× on the baseline stage relative to a single plain run.
	plainRun := mnemo.BaselineTime / 2
	ratio := float64(instr.BaselineTime) / float64(plainRun)
	if ratio < 20 {
		t.Errorf("instrumented baseline stage only %.1fx a plain run; want ≳40x", ratio)
	}
	// Both methods compute the same tiering.
	for i := range mnemoOrd.Keys {
		if mnemoOrd.Keys[i].Key != instrOrd.Keys[i].Key {
			t.Fatalf("orderings diverge at %d", i)
		}
	}
}

// TestExecuteErrorNamesRepetition pins the error text of Table IV's
// runs: each is a measuring call of one repetition and nameless legs, so
// a failure carries the repetition prefix client.Measure gives every
// failed repetition and nothing more.
func TestExecuteErrorNamesRepetition(t *testing.T) {
	w := smallTrending(4)
	cfg := core.DefaultConfig(server.RedisLike, 4)
	cfg.Server.Machine.FastCapacity = 512 // too small for even one record
	_, _, err := InstrumentedProfilerOverhead(cfg, w)
	if !errors.Is(err, memsim.ErrNoCapacity) {
		t.Fatalf("got %v, want a capacity overflow", err)
	}
	want := fmt.Sprintf("client: repetition 0 (seed %d): ", cfg.Server.Seed)
	if msg := err.Error(); !strings.HasPrefix(msg, want) || strings.Contains(msg[len(want):], "repetition") {
		t.Fatalf("error %q, want one prefix %q", msg, want)
	}
}

func TestTahoeTrainingAndInference(t *testing.T) {
	cfg := core.DefaultConfig(server.RedisLike, 3)
	model, err := TrainTahoe(cfg.Server, 100, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if model.Workloads() != 15 || model.Executions() != 30 {
		t.Fatalf("training counts: %d workloads, %d executions", model.Workloads(), model.Executions())
	}
	if model.TrainingTime() <= 0 {
		t.Fatal("training time not charged")
	}
	w := smallTrending(4)
	rep, res, err := TahoeOverhead(cfg, w, model)
	if err != nil {
		t.Fatal(err)
	}
	// The inference should be decent (Tahoe is accurate) but the total
	// cost must exceed MnemoT's because of training collection.
	if math.Abs(res.InferenceErrorPct) > 20 {
		t.Errorf("inference error %.1f%% too large for a trained model", res.InferenceErrorPct)
	}
	mnemo, _, _, err := MnemoTOverhead(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= mnemo.Total() {
		t.Fatalf("Tahoe total %v not above MnemoT %v", rep.Total(), mnemo.Total())
	}
	if res.TrainingExecutions != 30 {
		t.Error("result should carry training counts")
	}
}

func TestTrainTahoeRejectsBadSizes(t *testing.T) {
	cfg := core.DefaultConfig(server.RedisLike, 5)
	if _, err := TrainTahoe(cfg.Server, 1, 0, 100); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := TrainTahoe(cfg.Server, 1, 100, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestTahoeInferenceNonNegative(t *testing.T) {
	m := &TahoeModel{beta: []float64{-1e12, 0, 0, 0, 0}}
	w := smallTrending(6)
	cfg := core.DefaultConfig(server.RedisLike, 6)
	b, err := core.MeasureBaselines(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.InferFastRuntimeNs(w, b.Slow); got != 0 {
		t.Fatalf("pathological model produced negative runtime %v", got)
	}
}

func TestOverheadReportTotal(t *testing.T) {
	r := OverheadReport{InputPrep: 1, BaselineTime: 2, TieringTime: 3}
	if r.Total() != 6 {
		t.Fatalf("Total = %v", r.Total())
	}
}
