package server

import (
	"fmt"

	"mnemo/internal/memsim"
	"mnemo/internal/shard"
	"mnemo/internal/ycsb"
)

// Sharded replay cluster (DESIGN.md §13).
//
// A ShardedDeployment owns N single Deployments behind a consistent-
// hash ring: the workload is partitioned once (internal/shard, cached),
// each shard gets the records the ring assigns to it plus exactly its
// subsequence of the trace, and every existing single-deployment
// mechanism — the batched replay kernel, the ResetRun snapshot,
// telemetry flushing — applies per shard unchanged. Shards are fully
// independent simulations: no shared clock, no shared LLC, no
// cross-shard requests, which is what lets the client replay them on
// separate goroutines and still merge deterministically.
//
// Clock semantics are max-over-shards: the cluster's runtime is the
// slowest shard's simulated time, the way a scatter-gather measurement
// completes when its last shard does.

// shardSeedStride decorrelates per-shard noise streams. Shard 0 keeps
// the configured seed (so a 1-shard cluster reproduces the single
// deployment bit-for-bit); shard s runs at Seed + s·524287 — a stride
// coprime to and much larger than the repetition stride (1009), so run
// r of shard s never collides with run r′ of shard s′ within any
// realistic runs×shards grid.
const shardSeedStride = 524287

// ShardedDeployment is a consistent-hash cluster of Deployments
// replaying one partitioned workload.
type ShardedDeployment struct {
	cfg  Config
	part *shard.Partition
	deps []*Deployment
	// local[s] is shard s's remapped placement, kept for rebuilding a
	// shard whose snapshot reset is unavailable.
	local  []Placement
	loaded bool
}

// shardConfig derives member s's deployment config from a cluster
// config: the per-shard seed, with the cluster fields cleared (a member
// deployment is a plain single deployment).
func (cfg Config) shardConfig(s int) Config {
	c := cfg
	c.Seed = cfg.Seed + int64(s)*shardSeedStride
	c.Shards = 0
	return c
}

// NewShardedDeployment partitions the workload over cfg.Shards shards
// (shard.DefaultVirtualNodes ring points each) and builds one empty member
// deployment per shard. Partitioning is cached across clusters of the
// same workload and shape; per-shard noise streams are seeded at
// construction, like NewDeployment.
func NewShardedDeployment(cfg Config, w *ycsb.Workload) (*ShardedDeployment, error) {
	// Replay reads a sub-trace as frames, whichever path serves them, so
	// no shard needs Ops materialized. For rejects a shard count outside
	// [1, shard.MaxShards].
	part, err := shard.For(w, cfg.Shards, shard.DefaultVirtualNodes, false)
	if err != nil {
		return nil, err
	}
	sd := &ShardedDeployment{
		cfg:   cfg,
		part:  part,
		deps:  make([]*Deployment, cfg.Shards),
		local: make([]Placement, cfg.Shards),
	}
	for s := range sd.deps {
		sd.deps[s] = NewDeployment(cfg.shardConfig(s))
	}
	return sd, nil
}

// Shards returns the cluster size.
func (sd *ShardedDeployment) Shards() int { return len(sd.deps) }

// Dep returns shard s's member deployment.
func (sd *ShardedDeployment) Dep(s int) *Deployment { return sd.deps[s] }

// Sub returns shard s's sub-workload.
func (sd *ShardedDeployment) Sub(s int) *ycsb.Workload { return sd.part.Subs[s].W }

// Partition exposes the cluster's workload partition (for reports).
func (sd *ShardedDeployment) Partition() *shard.Partition { return sd.part }

// Load populates every shard from its partition slice under the global
// placement, remapped to shard-local record indices: local record i of
// shard s gets the tier the global placement assigns to its global
// index. Placement semantics are therefore identical to the single
// deployment's — the same record lands on the same tier regardless of
// shard count.
func (sd *ShardedDeployment) Load(p Placement) error {
	for s, d := range sd.deps {
		sub := &sd.part.Subs[s]
		lp := sd.localPlacement(p, sub)
		if err := d.Load(sub.W.Dataset, lp); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		sd.local[s] = lp
	}
	sd.loaded = true
	return nil
}

// localPlacement remaps the global placement onto one shard's local
// record indices.
func (sd *ShardedDeployment) localPlacement(p Placement, sub *shard.Sub) Placement {
	dense := make([]memsim.Tier, len(sub.GlobalIndex))
	for local, g := range sub.GlobalIndex {
		dense[local] = p.TierOfIndex(int(g))
	}
	return Placement{defaultTier: p.defaultTier, dense: dense}
}

// ResetRun rewinds every shard to its post-Load state under the member
// derivations of the new cluster seed. A member whose snapshot reset is
// unavailable (no batch table, or per-op frames mutated it) is rebuilt
// fresh from its kept local placement — same end state, populate cost
// paid again. Returns false only when the cluster was never loaded or a
// rebuild fails.
func (sd *ShardedDeployment) ResetRun(seed int64) bool {
	if !sd.loaded {
		return false
	}
	cluster := sd.cfg
	cluster.Seed = seed
	for s, d := range sd.deps {
		c := cluster.shardConfig(s)
		if d.ResetRun(c.Seed) {
			continue
		}
		nd := NewDeployment(c)
		if err := nd.Load(sd.part.Subs[s].W.Dataset, sd.local[s]); err != nil {
			return false
		}
		sd.deps[s] = nd
	}
	return true
}

// Engine reports the deployed engine (uniform across shards).
func (sd *ShardedDeployment) Engine() Engine { return sd.cfg.Engine }

// FlushObs publishes every shard's accumulated op and LLC counters, in
// shard order so the metric stream is deterministic.
func (sd *ShardedDeployment) FlushObs() {
	for _, d := range sd.deps {
		d.FlushObs()
	}
}

// Reusable reports whether every shard can serve further repetitions
// via the snapshot reset (all Rewindable).
func (sd *ShardedDeployment) Reusable() bool {
	if !sd.loaded {
		return false
	}
	for _, d := range sd.deps {
		if !d.Rewindable() {
			return false
		}
	}
	return true
}
