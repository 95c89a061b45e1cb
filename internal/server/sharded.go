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
// hash ring: the workload is partitioned once for its lifetime
// (shard.For, memoized on the workload), each shard gets the records
// the ring assigns to it plus exactly its subsequence of the trace, and
// every existing single-deployment mechanism — the batched replay
// kernel, the ResetRun snapshot, telemetry flushing — applies per shard
// unchanged. Shards are fully independent simulations: no shared clock,
// no shared LLC, no cross-shard requests, which is what lets the client
// replay them on separate goroutines and still merge deterministically.
//
// Clock semantics are max-over-shards: the cluster's runtime is the
// slowest shard's simulated time, the way a scatter-gather measurement
// completes when its last shard does.

// shardSeedStride decorrelates per-shard noise streams. Shard 0 keeps
// the configured seed (so a one-member cluster measures under exactly
// the configured seed); shard s runs at Seed + s·524287 — a stride
// coprime to and much larger than the repetition stride (1009), so run
// r of shard s never collides with run r′ of shard s′ within any
// realistic runs×shards grid.
const shardSeedStride = 524287

// ShardedDeployment is a consistent-hash cluster of Deployments
// replaying one partitioned workload. Every measurement runs on one: a
// config with Shards ≤ 1 gets a one-member cluster, which neither
// partitions nor copies anything — its member loads the parent dataset
// under the caller's placement and replays the parent workload.
type ShardedDeployment struct {
	w *ycsb.Workload
	// part is the workload's partition; nil for a one-member cluster.
	part   *shard.Partition
	deps   []*Deployment
	loaded bool
}

// shardSeed is member s's noise seed in a cluster seeded with seed.
func shardSeed(seed int64, s int) int64 { return seed + int64(s)*shardSeedStride }

// shardConfig derives member s's deployment config from a cluster
// config: the per-shard seed, with the cluster fields cleared (a member
// deployment is a plain single deployment).
func (cfg Config) shardConfig(s int) Config {
	c := cfg
	c.Seed = shardSeed(cfg.Seed, s)
	c.Shards = 0
	return c
}

// NewShardedDeployment builds one empty member deployment per shard of
// a max(cfg.Shards, 1)-member cluster. A larger cluster partitions the
// workload over its shards (shard.DefaultVirtualNodes ring points each),
// shared by every cluster of that workload and shape (shard.For).
// Per-shard noise streams are seeded at construction, like NewDeployment.
func NewShardedDeployment(cfg Config, w *ycsb.Workload) (*ShardedDeployment, error) {
	n := max(cfg.Shards, 1)
	sd := &ShardedDeployment{w: w, deps: make([]*Deployment, n)}
	if n > 1 {
		// Replay reads a sub-trace as frames, whichever path serves
		// them, so no shard needs Ops materialized. For rejects a shard
		// count above shard.MaxShards.
		part, err := shard.For(w, n, shard.DefaultVirtualNodes, false)
		if err != nil {
			return nil, err
		}
		sd.part = part
	}
	for s := range sd.deps {
		sd.deps[s] = NewDeployment(cfg.shardConfig(s))
		sd.deps[s].shardMember = n > 1
	}
	return sd, nil
}

// Shards returns the cluster size.
func (sd *ShardedDeployment) Shards() int { return len(sd.deps) }

// Dep returns shard s's member deployment.
func (sd *ShardedDeployment) Dep(s int) *Deployment { return sd.deps[s] }

// AddLane adds a lane that prices every record on tier, with seed
// offset seedOffset, to every member (Deployment.AddLane). The member
// seeds keep the offset: member s's lane k is seeded shardSeed(seed, s)
// plus it.
func (sd *ShardedDeployment) AddLane(tier memsim.Tier, seedOffset int64) {
	for _, d := range sd.deps {
		d.AddLane(tier, seedOffset)
	}
}

// Lanes reports the members' lane count.
func (sd *ShardedDeployment) Lanes() int { return sd.deps[0].Lanes() }

// Sub returns shard s's sub-workload: the parent workload itself in a
// one-member cluster.
func (sd *ShardedDeployment) Sub(s int) *ycsb.Workload {
	if sd.part == nil {
		return sd.w
	}
	return sd.part.Subs[s].W
}

// Load populates every shard from its partition slice under the global
// placement, remapped to shard-local record indices: local record i of
// shard s gets the tier the global placement assigns to its global
// index. Placement semantics are therefore identical to the single
// deployment's — the same record lands on the same tier regardless of
// shard count. A one-member cluster loads the parent dataset under p
// as it is, and its errors carry no shard prefix.
//
// Capacity is accounted lane by lane, each lane across every shard, so
// the error is that of the lowest lane that overflows — on the lowest
// shard it overflows on — as if each lane were a cluster of its own.
func (sd *ShardedDeployment) Load(p Placement) error {
	for s, d := range sd.deps {
		ds, lp := sd.w.Dataset, p
		if sd.part != nil {
			sub := &sd.part.Subs[s]
			ds, lp = sub.W.Dataset, sd.localPlacement(p, sub)
		}
		if err := d.place(ds, lp); err != nil {
			return err
		}
	}
	for k := 0; k < sd.Lanes(); k++ {
		for s, d := range sd.deps {
			if err := d.allocLane(k); err != nil {
				if sd.part != nil {
					err = &LaneError{Lane: k, Err: fmt.Errorf("shard %d: %w", s, err)}
				}
				return err
			}
		}
	}
	for _, d := range sd.deps {
		d.populate()
	}
	sd.loaded = true
	return nil
}

// localPlacement remaps the global placement onto one shard's local
// record indices. A placement with no per-record tiers is the same on
// every shard.
func (sd *ShardedDeployment) localPlacement(p Placement, sub *shard.Sub) Placement {
	if !p.Dense() {
		return p
	}
	dense := make([]memsim.Tier, len(sub.GlobalIndex))
	for local, g := range sub.GlobalIndex {
		dense[local] = p.TierOfIndex(int(g))
	}
	return Placement{defaultTier: p.defaultTier, dense: dense}
}

// ResetRun rewinds every shard to its post-Load state under the member
// derivations of the new cluster seed — the single deployment's reuse
// rule, applied member-wise. It returns false, leaving the cluster
// untouched, unless the cluster is Reusable.
func (sd *ShardedDeployment) ResetRun(seed int64) bool {
	if !sd.Reusable() {
		return false
	}
	for s, d := range sd.deps {
		d.ResetRun(shardSeed(seed, s))
	}
	return true
}

// Engine reports the deployed engine (uniform across shards).
func (sd *ShardedDeployment) Engine() Engine { return sd.deps[0].Engine() }

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
