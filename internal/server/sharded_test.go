package server

import (
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

func shardedWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "sd-test", Keys: 800, Requests: 6000,
		Dist: ycsb.DistSpec{Kind: ycsb.Uniform}, ReadRatio: 0.8,
		Sizes: ycsb.SizeFixed1KB, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewShardedDeploymentValidates(t *testing.T) {
	w := shardedWorkload(t)
	cfg := DefaultConfig(RedisLike, 1)
	sd, err := NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatalf("Shards=0 rejected: %v", err)
	}
	if sd.Shards() != 1 || sd.Sub(0) != w || sd.part != nil {
		t.Fatalf("Shards=0 is not a one-member cluster over the parent workload: %d members", sd.Shards())
	}
	cfg.Shards = 300
	if err := mustShardedErr(t, cfg, w); !strings.Contains(err, "outside [1,256]") {
		t.Fatalf("Shards=300 error not descriptive: %s", err)
	}
}

func mustShardedErr(t *testing.T, cfg Config, w *ycsb.Workload) string {
	t.Helper()
	_, err := NewShardedDeployment(cfg, w)
	if err == nil {
		t.Fatalf("config %+v accepted", cfg)
	}
	return err.Error()
}

// TestShardedLoadRemapsPlacement checks tier assignment is invariant
// under sharding: each record lands on the tier the global placement
// gives it, resolved through the shard-local index.
func TestShardedLoadRemapsPlacement(t *testing.T) {
	w := shardedWorkload(t)
	third := len(w.Dataset.Records) / 3
	fastIdx := make([]int, third)
	for i := range fastIdx {
		fastIdx[i] = i
	}
	p := FastIndices(fastIdx, len(w.Dataset.Records))
	cfg := DefaultConfig(RedisLike, 5)
	cfg.Shards = 4
	sd, err := NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	fastSeen := 0
	for s := 0; s < sd.Shards(); s++ {
		d := sd.Dep(s)
		for local, g := range sd.part.Subs[s].GlobalIndex {
			want := p.TierOfIndex(int(g))
			if got := d.Placement().TierOfIndex(local); got != want {
				t.Fatalf("shard %d record %d (global %d): tier %v, want %v", s, local, g, got, want)
			}
			if want == memsim.Fast {
				fastSeen++
			}
		}
	}
	if fastSeen != third {
		t.Fatalf("remap covered %d fast records, want %d", fastSeen, third)
	}
}

func TestShardedSeedsAndClock(t *testing.T) {
	w := shardedWorkload(t)
	cfg := DefaultConfig(RedisLike, 100)
	cfg.Shards = 3
	if got := cfg.shardConfig(0).Seed; got != 100 {
		t.Fatalf("shard 0 seed %d, want the base seed", got)
	}
	if got := cfg.shardConfig(2).Seed; got != 100+2*shardSeedStride {
		t.Fatalf("shard 2 seed %d", got)
	}
	if got := cfg.shardConfig(1); got.Shards != 0 {
		t.Fatal("member config kept cluster fields")
	}

	sd, err := NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sd.ResetRun(1) {
		t.Fatal("ResetRun before Load should fail")
	}
	if err := sd.Load(AllFast()); err != nil {
		t.Fatal(err)
	}
	if !sd.Reusable() {
		t.Fatal("batch-capable cluster not reusable")
	}
	// Advance one shard's clock; ResetRun rewinds every member.
	sd.Dep(1).DoIndex(0, kvstore.Read)
	if sd.Dep(1).Clock() == 0 {
		t.Fatal("served request did not advance the shard's clock")
	}
	if !sd.ResetRun(7) {
		t.Fatal("ResetRun after Load failed")
	}
	requireClocksZero(t, sd)
}

// requireClocksZero checks every member's clock is rewound.
func requireClocksZero(t *testing.T, sd *ShardedDeployment) {
	t.Helper()
	for s := 0; s < sd.Shards(); s++ {
		if c := sd.Dep(s).Clock(); c != 0 {
			t.Fatalf("shard %d clock %v after reset", s, c)
		}
	}
}

func TestShardedAccessors(t *testing.T) {
	w := shardedWorkload(t)
	cfg := DefaultConfig(RedisLike, 9)
	cfg.Shards = 3
	sd, err := NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Engine() != RedisLike {
		t.Fatalf("engine %v", sd.Engine())
	}
	recs, reqs := 0, 0
	for s := 0; s < sd.Shards(); s++ {
		sub := sd.Sub(s)
		recs += len(sub.Dataset.Records)
		reqs += sub.RequestCount()
	}
	if recs != len(w.Dataset.Records) || reqs != w.RequestCount() {
		t.Fatalf("subs cover %d records / %d requests, want %d / %d",
			recs, reqs, len(w.Dataset.Records), w.RequestCount())
	}
}
