package client

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

func shardedTestWorkload(t testing.TB, keys, requests int) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name:      "sharded-test",
		Keys:      keys,
		Requests:  requests,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.9,
		Sizes:     ycsb.SizeThumbnail,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func halfFastPlacement(w *ycsb.Workload) server.Placement {
	half := len(w.Dataset.Records) / 2
	fastIdx := make([]int, half)
	for i := range fastIdx {
		fastIdx[i] = i
	}
	return server.FastIndices(fastIdx, len(w.Dataset.Records))
}

// TestShardedOneShardGolden is the golden equivalence anchor: a 1-shard
// cluster must reproduce the unsharded path byte-for-byte — every
// RunStats field including the full latency histograms.
func TestShardedOneShardGolden(t *testing.T) {
	w := shardedTestWorkload(t, 2000, 20_000)
	p := halfFastPlacement(w)
	for _, tc := range []struct {
		name string
		mod  func(*server.Config)
	}{
		{"default", func(*server.Config) {}},
		{"no-batch", func(c *server.Config) { c.DisableBatchReplay = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.DefaultConfig(server.RedisLike, 42)
			tc.mod(&cfg)
			base, err := Execute(cfg, w, p)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 1
			sharded, err := Execute(cfg, w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, sharded) {
				t.Fatalf("Shards=1 diverged from unsharded:\nunsharded: %+v\nsharded:   %+v", base, sharded)
			}
		})
	}
}

// TestShardedOneShardMeanGolden extends the anchor through the
// repeated-measurement driver, covering the cluster snapshot/reset
// (executeShardedReused) against the single deployment's.
func TestShardedOneShardMeanGolden(t *testing.T) {
	w := shardedTestWorkload(t, 1000, 10_000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	base, err := ExecuteMeanCtx(context.Background(), cfg, w, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	sharded, err := ExecuteMeanCtx(context.Background(), cfg, w, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, sharded) {
		t.Fatalf("Shards=1 mean diverged from unsharded:\nunsharded: %+v\nsharded:   %+v", base, sharded)
	}
}

// TestShardedDeterminism runs a seeded 8-shard execution 50 times
// (under -race in CI) and requires every merged RunStats — including
// histogram contents — to be identical: the merge must not depend on
// goroutine scheduling.
func TestShardedDeterminism(t *testing.T) {
	w := shardedTestWorkload(t, 1500, 12_000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 8
	first, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		again, err := Execute(cfg, w, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced different merged stats:\nfirst: %+v\nagain: %+v", run, first, again)
		}
	}
}

// TestShardedMergeInvariants pins the documented merge semantics
// against a by-hand serial replay of the same cluster: counts sum,
// runtime is max-over-shards, throughput is total requests over the
// makespan.
func TestShardedMergeInvariants(t *testing.T) {
	w := shardedTestWorkload(t, 1200, 10_000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4

	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	var maxRuntime simclock.Duration
	totalReq := 0
	for s := 0; s < sd.Shards(); s++ {
		st, err := RunCtx(context.Background(), sd.Dep(s), sd.Sub(s), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Runtime > maxRuntime {
			maxRuntime = st.Runtime
		}
		totalReq += st.Requests
	}
	if totalReq != len(w.Ops) {
		t.Fatalf("shards served %d requests, trace has %d", totalReq, len(w.Ops))
	}

	agg, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Requests != len(w.Ops) {
		t.Fatalf("merged Requests = %d, want %d", agg.Requests, len(w.Ops))
	}
	if agg.Reads+agg.Writes != agg.Requests {
		t.Fatalf("reads %d + writes %d != requests %d", agg.Reads, agg.Writes, agg.Requests)
	}
	if agg.Runtime != maxRuntime {
		t.Fatalf("merged Runtime = %v, want max-over-shards %v", agg.Runtime, maxRuntime)
	}
	wantTput := float64(agg.Requests) / maxRuntime.Seconds()
	if agg.ThroughputOpsSec != wantTput {
		t.Fatalf("merged throughput %v, want %v", agg.ThroughputOpsSec, wantTput)
	}
}

// TestShardedEveryShardServes guards against a degenerate partition:
// at the default scale every shard of an 8-way cluster must hold
// records and serve requests.
func TestShardedEveryShardServes(t *testing.T) {
	w := shardedTestWorkload(t, 2000, 20_000)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 8
	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sd.Shards(); s++ {
		sub := sd.Sub(s)
		if len(sub.Dataset.Records) == 0 {
			t.Errorf("shard %d holds no records", s)
		}
		if sub.RequestCount() == 0 {
			t.Errorf("shard %d serves no requests", s)
		}
	}
}

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

// TestShardedCancellationNotRemediated: a cancelled context surfaces
// from a cluster aggregate as the context error, and no run is counted.
func TestShardedCancellationNotRemediated(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	sink := obs.NewSink()
	cfg.Obs = sink
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteMeanCtx(ctx, cfg, w, p, 3, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := sink.Counter("mnemo_client_runs_total").Value(); n != 0 {
		t.Fatalf("cancelled aggregate counted %d runs", n)
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
// same seed.
func TestShardedResetShardRebuildFresh(t *testing.T) {
	w := deleteTraceWorkload(t)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 3

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
