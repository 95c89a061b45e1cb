package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
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
	batched, errB = Execute(cfg, w, p)
	perOp, errP = Execute(perOpReference(cfg), w, p)
	return
}

// runBudgeted loads a fresh deployment and replays the trace under a
// RunCtx simulated-time budget, flushing the deployment's counters to
// cfg.Obs whether or not the budget trips.
func runBudgeted(t *testing.T, cfg server.Config, w *ycsb.Workload, p server.Placement, budget simclock.Duration) (RunStats, error) {
	t.Helper()
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(context.Background(), d, w, budget)
	d.FlushObs()
	return st, err
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

// TestBatchedReplayTimeoutParity pins the timeout error's request index
// and clock reading: a budget-tripping batched run must cut off at the
// same request, with the same message, as the per-op path.
func TestBatchedReplayTimeoutParity(t *testing.T) {
	w := testWorkload(0.9)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	const budget = 20 * simclock.Millisecond // trips mid-trace
	b, eb := runBudgeted(t, cfg, w, server.AllSlow(), budget)
	r, ep := runBudgeted(t, perOpReference(cfg), w, server.AllSlow(), budget)
	if eb == nil || ep == nil {
		t.Fatalf("budget did not trip (batched %v, per-op %v)", eb, ep)
	}
	if !errors.Is(eb, ErrRunTimeout) || !errors.Is(ep, ErrRunTimeout) {
		t.Fatalf("wrong error types: %v / %v", eb, ep)
	}
	requireSameOutcome(t, "timeout", b, r, eb, ep)
}

// TestBatchedCutOffTelemetryParity drives the cut-off contract of the
// staged kernel through RunCtx with a live sink on each side: the kernel
// has touched the LLC and drawn noise for the rest of its block when the
// cut is found, and none of that may show in the error's request index
// and clock or in the counters FlushObs publishes for the partial run.
// Every engine (treekv's pause mirror included) is cut by RunCtx's
// budget in the middle of its second block and must leave the same
// error text and the same metrics dump as the DisableBatchReplay
// reference.
func TestBatchedCutOffTelemetryParity(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "cutoff", Keys: 1000, Requests: 3 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed100KB, Seed: 5,
	})
	// cutIndex extracts the served-request count from a timeout error.
	cutIndex := func(err error) int {
		var served, total int
		text := err.Error()
		if _, serr := fmt.Sscanf(text[strings.Index(text, "after "):], "after %d/%d requests", &served, &total); serr != nil {
			t.Fatalf("unparseable timeout error %q: %v", text, serr)
		}
		return served
	}
	midBlock := func(n int) bool {
		return n > replayBlockOps && n%replayBlockOps > 100 && n%replayBlockOps < replayBlockOps-100
	}
	run := func(cfg server.Config, budget simclock.Duration) (string, error) {
		cfg.Obs = obs.NewSink()
		_, err := runBudgeted(t, cfg, w, server.AllSlow(), budget)
		var dump strings.Builder
		if werr := cfg.Obs.Registry().WritePrometheus(&dump); werr != nil {
			t.Fatal(werr)
		}
		// The frame-path and re-price counters (re-prices and their rows)
		// record which path served the run — the one thing the two sides
		// differ in by design.
		var same []string
		for _, line := range strings.SplitAfter(dump.String(), "\n") {
			if !strings.Contains(line, "mnemo_client_frames_total") && !strings.Contains(line, "mnemo_server_reprice_") {
				same = append(same, line)
			}
		}
		return strings.Join(same, ""), err
	}

	for _, e := range goldenEngines {
		t.Run(e.String()+"/timeout", func(t *testing.T) {
			cfg := server.DefaultConfig(e, 7)
			// Half a full run's simulated time runs out in the
			// middle of the second of the three blocks.
			full, err := Execute(perOpReference(cfg), w, server.AllSlow())
			if err != nil {
				t.Fatal(err)
			}
			budget := full.Runtime / 2
			wantDump, wantErr := run(perOpReference(cfg), budget)
			if !errors.Is(wantErr, ErrRunTimeout) || !midBlock(cutIndex(wantErr)) {
				t.Fatalf("reference was not cut mid-block: %v", wantErr)
			}

			gotDump, gotErr := run(cfg, budget)
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error diverged:\n  batched: %v\n  per-op:  %v", gotErr, wantErr)
			}
			if gotDump != wantDump {
				t.Fatalf("metrics diverged:\n--- batched ---\n%s--- per-op ---\n%s", gotDump, wantDump)
			}
			for _, name := range []string{"mnemo_server_ops_total", "mnemo_server_llc_hits_total", "mnemo_server_llc_misses_total"} {
				if !strings.Contains(gotDump, name) {
					t.Fatalf("metrics dump carries no %s:\n%s", name, gotDump)
				}
			}
		})
	}
}

// TestBatchedReplayCancellation verifies the block-granularity ctx poll:
// a pre-cancelled context aborts the batched replay with the context's
// error before any request is served.
func TestBatchedReplayCancellation(t *testing.T) {
	w := testWorkload(1.0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteCtx(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast()); !errors.Is(err, context.Canceled) {
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

// TestExecuteMeanReuseBitIdentical pins the aggregate built on rewound
// deployments (the default) against the per-op reference, which
// repopulates per repetition — covering Session.Compare's repeated-runs
// savings end to end.
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
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "alloc", Keys: 512, Requests: 4096,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 1.0, Sizes: ycsb.SizeFixed1KB, Seed: 9,
	})
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

// requireZeroAllocReplay warms the LLC and sizes every accumulator with
// one pass of the replay loop, then pins further passes at zero
// allocations.
func requireZeroAllocReplay(t *testing.T, d *server.Deployment, w *ycsb.Workload) {
	t.Helper()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	ctx := context.Background()
	pass := func() {
		if _, err := replayFrames(ctx, d, w, classes, a, 0); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("steady-state replay allocates %.1f times per pass, want 0", allocs)
	}
}
