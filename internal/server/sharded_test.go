package server

import (
	"errors"
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
	if _, err := NewShardedDeployment(cfg, w); err == nil {
		t.Fatal("Shards=0 accepted")
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
		part := sd.Partition()
		for local, g := range part.Subs[s].GlobalIndex {
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
	// One fate per cluster run: only member 0 carries the fault spec.
	fcfg := cfg
	fcfg.Fault = FaultSpec{Seed: 4, FailProb: 0.5}
	if got := fcfg.shardConfig(0).Fault; got != fcfg.Fault {
		t.Fatalf("member 0 fault spec %+v, want the cluster's", got)
	}
	if got := fcfg.shardConfig(2).Fault; got.Enabled() {
		t.Fatalf("member 2 carries a fault spec %+v", got)
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
	// Advance one shard's clock; cluster clock is the max.
	sd.Dep(1).DoIndex(0, kvstore.Read)
	if sd.Clock() != sd.Dep(1).Clock() {
		t.Fatalf("cluster clock %v != busiest shard %v", sd.Clock(), sd.Dep(1).Clock())
	}
	if !sd.ResetRun(7) {
		t.Fatal("ResetRun after Load failed")
	}
	if sd.Clock() != 0 {
		t.Fatalf("clock %v after reset", sd.Clock())
	}
}

func TestShardedAccessorsAndFaults(t *testing.T) {
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
	if err := sd.InjectedFailure(); err != nil {
		t.Fatalf("healthy cluster reported fault: %v", err)
	}

	// Certain failure: the cluster's one fate lands on member 0 and
	// surfaces with a shard prefix, still unwrappable to the typed
	// *FaultError.
	fcfg := cfg
	fcfg.Fault = FaultSpec{Seed: 1, FailProb: 1}
	fsd, err := NewShardedDeployment(fcfg, w)
	if err != nil {
		t.Fatal(err)
	}
	ferr := fsd.InjectedFailure()
	if ferr == nil || !strings.HasPrefix(ferr.Error(), "shard 0:") {
		t.Fatalf("multi-shard fault = %v, want shard-prefixed", ferr)
	}
	var fe *FaultError
	if !errors.As(ferr, &fe) || fe.Kind != FaultFail {
		t.Fatalf("fault not unwrappable: %v", ferr)
	}

	// A one-shard cluster returns the member's error bare, matching the
	// single deployment's contract.
	fcfg.Shards = 1
	f1, err := NewShardedDeployment(fcfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if berr := f1.InjectedFailure(); berr == nil || strings.HasPrefix(berr.Error(), "shard") {
		t.Fatalf("one-shard fault = %v, want bare *FaultError", berr)
	}
}

// TestShardedResetRebuildsWhenSnapshotUnavailable pins ResetRun's
// fallback: with the batched kernel disabled no shard has a snapshot,
// so every member is rebuilt fresh from its kept local placement.
func TestShardedResetRebuildsWhenSnapshotUnavailable(t *testing.T) {
	w := shardedWorkload(t)
	cfg := DefaultConfig(RedisLike, 3)
	cfg.Shards = 2
	cfg.DisableBatchReplay = true
	sd, err := NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(AllFast()); err != nil {
		t.Fatal(err)
	}
	if sd.Reusable() {
		t.Fatal("per-op cluster claims snapshot reuse")
	}
	before := []*Deployment{sd.Dep(0), sd.Dep(1)}
	sd.Dep(0).DoIndex(0, kvstore.Read)
	if !sd.ResetRun(5) {
		t.Fatal("rebuild reset failed")
	}
	if sd.Clock() != 0 {
		t.Fatalf("clock %v after rebuild reset", sd.Clock())
	}
	for s := range before {
		if sd.Dep(s) == before[s] {
			t.Fatalf("shard %d deployment not rebuilt", s)
		}
		if got := sd.Dep(s).Placement().TierOfIndex(0); got != memsim.Fast {
			t.Fatalf("shard %d rebuilt placement tier %v", s, got)
		}
	}
	sd.FlushObs() // sink-less flush must be a safe no-op, in shard order
}
