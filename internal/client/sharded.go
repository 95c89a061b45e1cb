package client

import (
	"context"
	"fmt"

	"mnemo/internal/pool"
	"mnemo/internal/server"
)

// Execution (DESIGN.md §13): the scatter-gather client over a
// server.ShardedDeployment, which every measurement runs on — a
// one-member cluster when cfg.Shards ≤ 1. Each shard replays its trace
// slice on its own worker (independent simulation state throughout),
// and the per-shard RunStats are merged with a deterministic,
// order-independent reduction: results land in a shard-indexed slice and
// are folded in ascending shard order, so the merged stats are
// bit-identical for every goroutine schedule and worker count —
// including workers=1, which is the serial reference execution of the
// same code path.

// runSharded replays every shard and merges, lane by lane: it returns
// one RunStats per lane of the cluster. A one-member cluster runs
// inline on the calling goroutine and is not merged: no pool telemetry,
// and its LLC hit rate is not re-derived as rate·n/n, so it measures
// exactly what its single deployment does. Larger clusters fan out
// across the shared worker budget (pool.Budget): each worker drives
// whole shards, and composition with outer fan-outs (validation points
// × repetitions) cannot oversubscribe the machine.
//
// A cluster run fails as a whole, like a single deployment: a shard
// error (cancellation, a corrupt trace frame) fails the scatter-gather.
func runSharded(ctx context.Context, cfg server.Config, sd *server.ShardedDeployment) ([]RunStats, error) {
	n := sd.Shards()
	if n == 1 {
		return runLanes(ctx, sd.Dep(0), sd.Sub(0))
	}
	per, err := pool.Map(ctx, n, n, cfg.Obs, func(ctx context.Context, s int) ([]RunStats, error) {
		sts, err := runLanes(ctx, sd.Dep(s), sd.Sub(s))
		if err != nil {
			return sts, fmt.Errorf("client: shard %d: %w", s, err)
		}
		return sts, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]RunStats, len(per[0]))
	col := make([]RunStats, n)
	for k := range out {
		for s := range per {
			col[s] = per[s][k]
		}
		out[k] = mergeShardRuns(col)
	}
	return out, nil
}

// mergeShardRuns folds per-shard run stats into cluster stats, in
// ascending shard order (deterministic and schedule-independent since
// `per` is shard-indexed). Counts sum; histograms and size-class
// buckets merge and every latency figure is re-derived from the merged
// histograms, exactly as RunCtx derives them from a single run's — so
// the merge is a pure reduction with no averaging-of-averages. Runtime
// is max-over-shards (the scatter-gather completes with its slowest
// shard) and throughput is total requests over that makespan. The LLC
// hit rate is the request-weighted mean, which equals total hits over
// total accesses. Migration telemetry sums (moves, bytes and charged ns
// are cluster totals), per-epoch rows merge by epoch index, and Epochs
// is the most any shard served: shards cut epochs on their own
// sub-traces, so the longest one sets the cluster's epoch count.
func mergeShardRuns(per []RunStats) RunStats {
	agg := RunStats{
		Workload: per[0].Workload,
		Engine:   per[0].Engine,
	}
	hitWeighted := 0.0
	for s := range per {
		st := &per[s]
		agg.Requests += st.Requests
		if st.Runtime > agg.Runtime {
			agg.Runtime = st.Runtime
		}
		agg.ReadLatency = mergeHistograms(agg.ReadLatency, st.ReadLatency)
		agg.WriteLatency = mergeHistograms(agg.WriteLatency, st.WriteLatency)
		hitWeighted += st.LLCHitRate * float64(st.Requests)
		agg.Epochs = max(agg.Epochs, st.Epochs)
		agg.MovesApplied += st.MovesApplied
		agg.MigratedBytes += st.MigratedBytes
		agg.MigrationNs += st.MigrationNs
		agg.EpochTraffic = mergeEpochTraffic(agg.EpochTraffic, st.EpochTraffic)
	}
	if agg.Runtime > 0 {
		agg.ThroughputOpsSec = float64(agg.Requests) / agg.Runtime.Seconds()
	}
	agg.deriveLatency()
	if agg.Requests > 0 {
		agg.LLCHitRate = hitWeighted / float64(agg.Requests)
	}
	return agg
}
