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
			base, err := measureRun(cfg, w, p)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 1
			sharded, err := measureRun(cfg, w, p)
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
// repeated-measurement driver at both spellings of one deployment.
func TestShardedOneShardMeanGolden(t *testing.T) {
	w := shardedTestWorkload(t, 1000, 10_000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	base, err := measureOne(context.Background(), cfg, w, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	sharded, err := measureOne(context.Background(), cfg, w, p, 4, 0)
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
	first, err := measureRun(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		again, err := measureRun(cfg, w, p)
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

	agg, err := measureRun(cfg, w, p)
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
	_, err := measureOne(ctx, cfg, w, p, 3, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := sink.Counter("mnemo_client_runs_total").Value(); n != 0 {
		t.Fatalf("cancelled aggregate counted %d runs", n)
	}
}

// deleteTraceWorkload generates a read-heavy trace and rewrites a few
// ops into Deletes: their frames are served per-op, which mutates engine
// state, so member deployments cannot be rewound by the snapshot reset.
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

// TestShardedResetRefusesMutatedCluster pins the cluster's one reuse
// rule, the single deployment's: a cluster whose members served Delete
// frames per-op is not Reusable, so ResetRun refuses it and leaves it
// untouched — every member the same deployment, every clock where the
// run left it.
func TestShardedResetRefusesMutatedCluster(t *testing.T) {
	w := deleteTraceWorkload(t)
	p := halfFastPlacement(w)
	for _, shards := range []int{1, 3} {
		cfg := server.DefaultConfig(server.RedisLike, 42)
		cfg.Shards = shards
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
			t.Fatalf("Shards=%d: a cluster that served Delete frames per-op claims snapshot reuse", shards)
		}
		deps := make([]*server.Deployment, sd.Shards())
		clocks := make([]simclock.Duration, sd.Shards())
		for s := range deps {
			deps[s], clocks[s] = sd.Dep(s), sd.Dep(s).Clock()
		}
		if sd.ResetRun(4242) {
			t.Fatalf("Shards=%d: ResetRun accepted a mutated cluster", shards)
		}
		for s := range deps {
			if sd.Dep(s) != deps[s] || sd.Dep(s).Clock() != clocks[s] {
				t.Fatalf("Shards=%d: refused ResetRun touched shard %d", shards, s)
			}
		}
	}
}
