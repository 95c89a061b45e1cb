package client

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// engines under golden-equivalence test: every engine must price
// identically through the batched kernel and the per-op path.
var goldenEngines = []server.Engine{server.RedisLike, server.MemcachedLike, server.DynamoLike}

// executeBoth runs one config through the batched path (as given) and
// the per-op reference path (DisableBatchReplay) and returns both
// outcomes for comparison.
func executeBoth(t *testing.T, cfg server.Config, w *ycsb.Workload, p server.Placement) (batched, perOp RunStats, errB, errP error) {
	t.Helper()
	batched, errB = measureRun(cfg, w, p)
	perOp, errP = measureRun(perOpReference(cfg), w, p)
	return
}

// perOpReference is the config's per-op twin, the reference every
// batched outcome is held against.
func perOpReference(cfg server.Config) server.Config {
	cfg.DisableBatchReplay = true
	return cfg
}

// requireSameOutcome asserts bit-identical stats and identical error
// text between the two replay paths.
func requireSameOutcome(t *testing.T, label string, batched, perOp RunStats, errB, errP error) {
	t.Helper()
	if (errB == nil) != (errP == nil) {
		t.Fatalf("%s: batched err %v, per-op err %v", label, errB, errP)
	}
	if errB != nil && errB.Error() != errP.Error() {
		t.Fatalf("%s: error text diverged:\n  batched: %v\n  per-op:  %v", label, errB, errP)
	}
	if !reflect.DeepEqual(batched, perOp) {
		t.Fatalf("%s: stats diverged:\n  batched: %+v\n  per-op:  %+v", label, batched, perOp)
	}
}

// TestBatchedReplayEngages pins that the default config actually takes
// the kernel path on every engine — the golden tests below would pass
// vacuously if BatchTable quietly returned nil everywhere.
func TestBatchedReplayEngages(t *testing.T) {
	w := testWorkload(0.9)
	for _, e := range goldenEngines {
		d := server.NewDeployment(server.DefaultConfig(e, 1))
		if err := d.Load(w.Dataset, server.AllFast()); err != nil {
			t.Fatal(err)
		}
		if d.BatchTable() == nil {
			t.Errorf("%v: BatchTable nil on a loaded default deployment", e)
		}
	}
	if !w.Packed().Batchable() {
		t.Error("read/write trace not batchable")
	}
	d := server.NewDeployment(server.Config{Engine: server.RedisLike, DisableBatchReplay: true})
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	if d.BatchTable() != nil {
		t.Error("DisableBatchReplay did not force the per-op path")
	}
}

// TestBatchedReplayBitIdentical is the golden equivalence test of the
// kernel: for every engine, placement split and noise setting, the
// batched path must reproduce the per-op path's RunStats bit for bit.
func TestBatchedReplayBitIdentical(t *testing.T) {
	for _, ratio := range []float64{1.0, 0.7} {
		w := testWorkload(ratio)
		for _, e := range goldenEngines {
			half := make([]int, 500)
			for i := range half {
				half[i] = i
			}
			for _, p := range []server.Placement{server.AllFast(), server.AllSlow(), server.FastIndices(half, len(w.Dataset.Records))} {
				cfg := server.DefaultConfig(e, 42)
				b, r, eb, ep := executeBoth(t, cfg, w, p)
				requireSameOutcome(t, e.String(), b, r, eb, ep)
			}
			// Noise disabled: the zero-sigma fast path must agree too.
			cfg := server.DefaultConfig(e, 42)
			cfg.NoiseSigma = 0
			b, r, eb, ep := executeBoth(t, cfg, w, server.AllSlow())
			requireSameOutcome(t, e.String()+"/nonoise", b, r, eb, ep)
		}
	}
}

// TestBatchedReplayCancellation verifies the block-granularity ctx poll:
// a pre-cancelled context aborts the batched replay with the context's
// error before any request is served.
func TestBatchedReplayCancellation(t *testing.T) {
	w := testWorkload(1.0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := measureOne(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast(), 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResetRunMatchesFreshDeployment is the snapshot/reset golden test:
// running seed B on a deployment rewound from a seed-A run must equal
// running seed B on a freshly populated deployment.
func TestResetRunMatchesFreshDeployment(t *testing.T) {
	w := testWorkload(0.8)
	for _, e := range goldenEngines {
		cfgA := server.DefaultConfig(e, 1000)
		d := server.NewDeployment(cfgA)
		if err := d.Load(w.Dataset, server.AllSlow()); err != nil {
			t.Fatal(err)
		}
		if _, err := RunCtx(context.Background(), d, w, 0); err != nil {
			t.Fatal(err)
		}
		if !d.ResetRun(2000) {
			t.Fatalf("%v: ResetRun refused a batch-capable deployment", e)
		}
		reused, err := RunCtx(context.Background(), d, w, 0)
		if err != nil {
			t.Fatal(err)
		}

		fresh := server.NewDeployment(server.DefaultConfig(e, 2000))
		if err := fresh.Load(w.Dataset, server.AllSlow()); err != nil {
			t.Fatal(err)
		}
		want, err := RunCtx(context.Background(), fresh, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("%v: reused run diverged from fresh:\n  reused: %+v\n  fresh:  %+v", e, reused, want)
		}
	}
}

// TestExecuteMeanReuseBitIdentical pins the kernel's aggregate over
// repetitions against the per-op reference at two worker counts.
func TestExecuteMeanReuseBitIdentical(t *testing.T) {
	w := testWorkload(0.9)
	for _, workers := range []int{1, 4} {
		cfg := server.DefaultConfig(server.MemcachedLike, 31)
		got, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.DisableBatchReplay = true
		want, err := ExecuteMeanWorkers(ref, w, server.AllFast(), 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: reuse aggregate diverged:\n  got:  %+v\n  want: %+v", workers, got, want)
		}
	}
}

// TestBatchedReplaySteadyStateZeroAllocs extends the zero-alloc pin to
// the kernel path: after warmup, a full batched pass must not allocate.
func TestBatchedReplaySteadyStateZeroAllocs(t *testing.T) {
	w := allocWorkload(1)
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.NoiseSigma = 0 // keep the latency set closed across passes
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocReplay(t, d, w)
	if !d.Rewindable() {
		t.Fatal("a frame left the kernel path; the pin did not cover it")
	}
}

// requireZeroAllocReplay pins a steady-state replay pass at zero
// allocations (replayAllocs).
func requireZeroAllocReplay(t *testing.T, d *server.Deployment, w *ycsb.Workload) {
	t.Helper()
	if allocs := replayAllocs(t, d, w); allocs != 0 {
		t.Fatalf("steady-state replay allocates %.1f times per pass, want 0", allocs)
	}
}

// replayAllocs warms the LLC and sizes every accumulator with one pass
// of the replay loop, then returns the allocations of a further pass.
func replayAllocs(t *testing.T, d *server.Deployment, w *ycsb.Workload) float64 {
	t.Helper()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	ctx := context.Background()
	pass := func() {
		if _, err := replayFrames(ctx, d, w, classes, a); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	return testing.AllocsPerRun(5, pass)
}
