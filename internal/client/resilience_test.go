package client

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// resWorkload is small enough that resilience tests with many
// repetitions and retries stay fast under -race.
func resWorkload() *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "resilience", Keys: 128, Requests: 2000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 17,
	})
}

func TestPolicyValidate(t *testing.T) {
	good := []Policy{{}, {Retries: 3, MinRuns: 1, OutlierMAD: 3.5}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", p, err)
		}
	}
	bad := []Policy{
		{Retries: -1},
		{MinRuns: -1},
		{OutlierMAD: -1},
		{OutlierMAD: 3.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: accepted", p)
		}
	}
}

func TestExecuteCtxInjectedFailureIsTyped(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 1)
	cfg.Fault = server.FaultSpec{Seed: 2, FailProb: 1}
	_, err := ExecuteCtx(context.Background(), cfg, w, server.AllFast())
	var ferr *server.FaultError
	if !errors.As(err, &ferr) {
		t.Fatalf("err = %v (%T), want *server.FaultError", err, err)
	}
}

func TestExecuteCtxTimeoutCutsStall(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.Fault = server.FaultSpec{Seed: 5, StallProb: 1, Stall: 30 * simclock.Second, StallWindowOps: 256}
	cfg.RunTimeout = 2 * simclock.Second
	start := time.Now()
	_, err := ExecuteCtx(context.Background(), cfg, w, server.AllFast())
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("err = %v, want ErrRunTimeout", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("simulated stall took %v of wall time", wall)
	}
}

func TestExecuteCtxHealthyRunWithinBudget(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.RunTimeout = 3600 * simclock.Second // generous simulated budget
	st, err := ExecuteCtx(context.Background(), cfg, w, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != len(w.Ops) {
		t.Fatalf("requests %d, want %d", st.Requests, len(w.Ops))
	}
}

func TestExecuteCtxCancelled(t *testing.T) {
	w := resWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteCtx(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteMeanCtxRetryRecovers(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 11)
	cfg.Fault = server.FaultSpec{Seed: 9, FailProb: 0.5}
	pol := Policy{Retries: 8, MinRuns: 1}
	st, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 8, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsRequested != 8 || st.RunsUsed < 1 {
		t.Fatalf("run counts: %+v", st)
	}
	if st.RunsRetried == 0 {
		t.Fatal("FailProb 0.5 over 8 reps triggered no retries — seed choice broken")
	}
	if st.RunsUsed == 8 && st.Degraded {
		t.Fatal("full survival flagged degraded")
	}
}

func TestExecuteMeanCtxStrictModeFailsFast(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 11)
	cfg.Fault = server.FaultSpec{Seed: 9, FailProb: 1}
	_, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 4, 1, Policy{})
	var ferr *server.FaultError
	if !errors.As(err, &ferr) {
		t.Fatalf("strict mode err = %v, want wrapped *server.FaultError", err)
	}
}

func TestExecuteMeanCtxDegradesToSurvivors(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 29)
	cfg.Fault = server.FaultSpec{Seed: 13, FailProb: 0.5}
	pol := Policy{MinRuns: 1} // no retries: failed reps are simply dropped
	st, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 10, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsUsed == 0 || st.RunsUsed >= 10 {
		t.Fatalf("FailProb 0.5 over 10 reps left %d survivors — seed choice broken", st.RunsUsed)
	}
	if !st.Degraded {
		t.Fatal("partial survival not flagged degraded")
	}
	if st.Runtime <= 0 || st.ThroughputOpsSec <= 0 {
		t.Fatalf("degraded aggregate empty: %+v", st)
	}
}

func TestExecuteMeanCtxAllRunsDeadReportsError(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 29)
	cfg.Fault = server.FaultSpec{Seed: 13, FailProb: 1}
	_, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 4, 1, Policy{MinRuns: 1})
	if err == nil {
		t.Fatal("zero survivors accepted")
	}
	var ferr *server.FaultError
	if !errors.As(err, &ferr) {
		t.Fatalf("err = %v, want wrapped *server.FaultError", err)
	}
}

func TestExecuteMeanCtxMADRejectsOutliers(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 42)
	healthy, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 8, 1, Policy{})
	if err != nil {
		t.Fatal(err)
	}

	// Seeds chosen so 2 of the 8 repetitions roll outlier fates — a
	// minority, so the healthy runtime is the median the MAD gate keeps.
	cfg.Fault = server.FaultSpec{Seed: 23, OutlierProb: 0.3, OutlierFactor: 50}
	pol := Policy{MinRuns: 1, OutlierMAD: 3.5}
	st, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 8, 1, pol)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsUsed >= 8 {
		t.Fatal("OutlierProb 0.3 over 8 reps rejected nothing — seed choice broken")
	}
	if !st.Degraded {
		t.Fatal("outlier rejection not flagged degraded")
	}
	// The whole point: the 50×-inflated runs must not drag the mean.
	if st.Runtime > 2*healthy.Runtime {
		t.Fatalf("outliers leaked into the mean: %v vs healthy %v", st.Runtime, healthy.Runtime)
	}

	// Without rejection the same faulted schedule must be visibly skewed,
	// proving the gate (not luck) kept the mean clean.
	raw, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 8, 1, Policy{MinRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Runtime < 2*healthy.Runtime {
		t.Fatalf("faulted schedule not skewed without MAD gate: %v vs %v", raw.Runtime, healthy.Runtime)
	}
}

func TestExecuteMeanCtxDeterministicAcrossWorkers(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.DynamoLike, 53)
	cfg.Fault = server.FaultSpec{Seed: 31, FailProb: 0.2, OutlierProb: 0.2, OutlierFactor: 20}
	pol := Policy{Retries: 2, MinRuns: 1, OutlierMAD: 3.5}
	var ref RunStats
	for i, workers := range []int{1, 2, 4, 7} {
		st, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 6, workers, pol)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = st
			continue
		}
		if !reflect.DeepEqual(ref, st) {
			t.Fatalf("workers=%d diverged from serial:\n%+v\nvs\n%+v", workers, ref, st)
		}
	}
}

func TestExecuteMeanCtxCancellation(t *testing.T) {
	w := resWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteMeanCtx(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast(), 8, 2, Policy{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteMeanCtxRejectsBadArgs(t *testing.T) {
	w := resWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 1)
	if _, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 0, 1, Policy{}); err == nil {
		t.Fatal("runs=0 accepted")
	}
	if _, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 2, 1, Policy{Retries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
}
