package client

import (
	"context"
	"fmt"

	"mnemo/internal/obs"
	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Sharded execution (DESIGN.md §13): the scatter-gather client over a
// server.ShardedDeployment. Each shard replays its trace slice on its
// own worker (independent simulation state throughout), and the
// per-shard RunStats are merged with a deterministic, order-independent
// reduction: results land in a shard-indexed slice and are folded in
// ascending shard order, so the merged stats are bit-identical for
// every goroutine schedule and worker count — including workers=1,
// which is the serial reference execution of the same code path.

// executeShardedFresh is executeFresh over a cluster: build, load every
// shard under the remapped placement, replay and merge. The event and
// counter stream matches the single-deployment path one-for-one at
// Shards=1.
func executeShardedFresh(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, *server.ShardedDeployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, nil, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	if err := sd.Load(p); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	st, err := runShardedAndFlush(ctx, cfg, w, sd)
	return st, sd, err
}

// executeShardedReused is executeReused over a cluster: every shard is
// rewound to its post-Load snapshot under the new seed's per-shard
// derivations.
func executeShardedReused(ctx context.Context, cfg server.Config, w *ycsb.Workload, sd *server.ShardedDeployment) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	if !sd.ResetRun(cfg.Seed) {
		return RunStats{}, fmt.Errorf("client: cached cluster lost its run snapshot")
	}
	return runShardedAndFlush(ctx, cfg, w, sd)
}

// runShardedAndFlush is runAndFlush over a cluster: the fanned-out
// replay, the shard-order telemetry flush (complete and failed shards
// alike), and the run-level counters and journal events under the
// parent workload's name.
func runShardedAndFlush(ctx context.Context, cfg server.Config, w *ycsb.Workload, sd *server.ShardedDeployment) (RunStats, error) {
	st, err := runSharded(ctx, cfg, sd)
	sd.FlushObs()
	if err != nil {
		cfg.Obs.Counter("mnemo_client_run_failures_total").Inc()
		return st, err
	}
	st.Workload = w.Spec.Name
	publishRun(cfg, w.Spec.Name, st)
	return st, err
}

// runSharded replays every shard and merges. A one-shard cluster runs
// inline on the calling goroutine — no pool, so its telemetry stream
// (and everything else) is indistinguishable from the single-deployment
// path. Larger clusters fan out across the shared worker budget
// (pool.Budget): each worker drives whole shards, and composition with
// outer fan-outs (validation points × repetitions) cannot oversubscribe
// the machine.
//
// A cluster run fails as a whole, like a single deployment: a shard
// error (cancellation, a corrupt trace frame) fails the scatter-gather.
func runSharded(ctx context.Context, cfg server.Config, sd *server.ShardedDeployment) (RunStats, error) {
	n := sd.Shards()
	if n == 1 {
		return RunCtx(ctx, sd.Dep(0), sd.Sub(0), 0)
	}
	per := make([]RunStats, n)
	errs := make([]error, n)
	ctx = pool.EnsureBudget(ctx)
	if perr := pool.RunObs(ctx, n, n, cfg.Obs, func(s int) {
		per[s], errs[s] = RunCtx(ctx, sd.Dep(s), sd.Sub(s), 0)
	}); perr != nil {
		return RunStats{}, perr
	}
	for s, err := range errs {
		if err != nil {
			return RunStats{}, fmt.Errorf("client: shard %d: %w", s, err)
		}
	}
	return mergeShardRuns(per), nil
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
		agg.Reads += st.Reads
		agg.Writes += st.Writes
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
	agg.ReadBuckets = bucketsFromHistograms(agg.ReadLatency)
	agg.WriteBuckets = bucketsFromHistograms(agg.WriteLatency)
	readSum, writeSum := histogramSum(agg.ReadLatency), histogramSum(agg.WriteLatency)
	if agg.Reads > 0 {
		agg.AvgReadNs = readSum / float64(agg.Reads)
	}
	if agg.Writes > 0 {
		agg.AvgWriteNs = writeSum / float64(agg.Writes)
	}
	hist := mergedHistogram(agg.ReadLatency, agg.WriteLatency)
	agg.AvgNs = hist.Mean()
	agg.P50Ns = hist.Quantile(0.50)
	agg.P95Ns = hist.Quantile(0.95)
	agg.P99Ns = hist.Quantile(0.99)
	agg.MaxNs = hist.Max()
	if agg.Requests > 0 {
		agg.LLCHitRate = hitWeighted / float64(agg.Requests)
	}
	return agg
}

// bucketsFromHistograms derives the per-size-class count/mean table
// from merged class histograms — the same derivation histAccum
// .bucketStats performs on a single run's.
func bucketsFromHistograms(bhs []BucketHistogram) []BucketStat {
	var out []BucketStat
	for _, bh := range bhs {
		if bh.Hist.N() > 0 {
			out = append(out, BucketStat{Bucket: bh.Bucket, Count: int(bh.Hist.N()), MeanNs: bh.Hist.Mean()})
		}
	}
	return out
}

// histogramSum totals the exact latency sums of a class-histogram set.
func histogramSum(bhs []BucketHistogram) float64 {
	sum := 0.0
	for _, bh := range bhs {
		sum += bh.Hist.Sum()
	}
	return sum
}
