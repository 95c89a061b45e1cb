package client

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// runShardedOnce builds a fresh cluster for cfg, loads it under p and
// executes one sharded run — the scatter-gather under test.
func runShardedOnce(t *testing.T, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	t.Helper()
	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	return runSharded(context.Background(), cfg, sd)
}

// TestShardedCrashFaultLegacyFails pins the whole-cluster contract: the
// cluster run's crash fate lands on member 0 and fails the whole
// scatter-gather with a shard-attributed *server.FaultError.
func TestShardedCrashFaultLegacyFails(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	// Keep the crash window inside member 0's sub-trace (~1000 ops): the
	// default 4096-op window mostly schedules the crash past the end of
	// a shard's slice, where it never fires.
	cfg.Fault = server.FaultSpec{CrashProb: 1, StallWindowOps: 200, Seed: 11}
	_, err := runShardedOnce(t, cfg, w, p)
	var fe *server.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a *server.FaultError", err)
	}
	if fe.Kind != server.FaultCrash {
		t.Fatalf("fault kind %v, want crash", fe.Kind)
	}
	if !strings.Contains(err.Error(), "shard 0: ") {
		t.Fatalf("crash error does not name member 0: %v", err)
	}
}

// TestShardedCrashRetriedByRepetition finds a seeded schedule where a
// cluster run crashes and the repetition layer's retry recovers it: the
// aggregate is full (not degraded), serves every request, reports the
// retry, and the remediated execution is deterministic across calls.
func TestShardedCrashRetriedByRepetition(t *testing.T) {
	w := shardedTestWorkload(t, 600, 6000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	pol := Policy{Retries: 3}
	for fs := int64(1); fs <= 200; fs++ {
		cfg.Fault = server.FaultSpec{CrashProb: 0.5, StallWindowOps: 200, Seed: fs}
		st, err := ExecuteMeanCtx(context.Background(), cfg, w, p, 2, 2, pol)
		if err != nil || st.RunsRetried == 0 {
			continue
		}
		if st.Degraded || st.RunsUsed != 2 {
			t.Fatalf("fault seed %d: recovered aggregate flagged degraded: %+v", fs, st)
		}
		if st.Requests != w.RequestCount() {
			t.Fatalf("fault seed %d: recovered run served %d of %d requests",
				fs, st.Requests, w.RequestCount())
		}
		again, err := ExecuteMeanCtx(context.Background(), cfg, w, p, 2, 1, pol)
		if err != nil {
			t.Fatalf("fault seed %d: rerun failed: %v", fs, err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("fault seed %d: remediated run not deterministic:\nfirst: %+v\nagain: %+v",
				fs, st, again)
		}
		return
	}
	t.Fatal("no fault seed in [1,200] produced a retry-recovered run")
}

// TestShardedCancellationNotRemediated: a cancelled context surfaces as
// the context error, never dressed up as a fault or retried by the
// repetition layer.
func TestShardedCancellationNotRemediated(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	sink := obs.NewSink()
	cfg.Obs = sink
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteMeanCtx(ctx, cfg, w, p, 3, 1, Policy{Retries: 2, MinRuns: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := sink.Counter("mnemo_client_run_retries_total").Value(); n != 0 {
		t.Fatalf("cancellation retried %d times", n)
	}
}

// deleteTraceWorkload generates a read-heavy trace and rewrites a few
// ops into Deletes: their frames are served per-op, which mutates engine
// state, so member deployments cannot be rewound by the snapshot reset
// and ResetRun must rebuild them fresh.
func deleteTraceWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "sharded-delete", Keys: 400, Requests: 3000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.95,
		Sizes:     ycsb.SizeThumbnail,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < len(w.Ops); i += 97 {
		w.Ops[i].Kind = kvstore.Delete
	}
	if w.Packed().Batchable() {
		t.Fatal("delete trace still batchable")
	}
	return w
}

// TestShardedResetShardRebuildFresh covers ResetRun's per-member
// rebuild-fresh fallback: a member that served Delete-bearing frames
// per-op cannot take the snapshot reset, so ResetRun must replace the
// consumed member with a freshly populated one — and a rewound-then-rerun
// cluster must measure byte-identically to a cluster built fresh at the
// same seed, injected fault state included.
func TestShardedResetShardRebuildFresh(t *testing.T) {
	w := deleteTraceWorkload(t)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 3
	cfg.Fault = server.FaultSpec{OutlierProb: 1, Seed: 7}

	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := runSharded(context.Background(), cfg, sd); err != nil {
		t.Fatal(err)
	}
	if sd.Reusable() {
		t.Fatal("a cluster that served Delete frames per-op should not be snapshot-reusable")
	}

	const seedB = 4242
	before := make([]*server.Deployment, sd.Shards())
	for s := range before {
		before[s] = sd.Dep(s)
	}
	if !sd.ResetRun(seedB) {
		t.Fatal("ResetRun failed")
	}
	rebuilt := 0
	for s := range before {
		// A sub-trace that got no Deletes is still batchable and may
		// legitimately rewind in place; a Delete-bearing one must have
		// been rebuilt.
		if !sd.Sub(s).Packed().Batchable() {
			if sd.Dep(s) == before[s] {
				t.Fatalf("shard %d: expected a rebuilt member, got the snapshot-reset one", s)
			}
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("no shard exercised the rebuild-fresh fallback")
	}
	cfgB := cfg
	cfgB.Seed = seedB
	reset, err := runSharded(context.Background(), cfgB, sd)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := runShardedOnce(t, cfgB, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reset, fresh) {
		t.Fatalf("rebuilt-member run diverged from fresh cluster:\nreset: %+v\nfresh: %+v", reset, fresh)
	}
}
