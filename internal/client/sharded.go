package client

import (
	"context"
	"errors"
	"fmt"

	"mnemo/internal/obs"
	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/stats"
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

// executeShardedFresh is executeFresh over a cluster: build, check the
// injected fates (a dead shard fails the scatter-gather at connect
// time), load every shard under the remapped placement, replay and
// merge. The event and counter stream matches the single-deployment
// path one-for-one at Shards=1.
func executeShardedFresh(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, pol Policy) (RunStats, *server.ShardedDeployment, error) {
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
	// On the fault-domain path a fail-fated shard is a per-shard matter
	// (retried, then charged to the shard fault budget), not a
	// connect-time cluster failure.
	if !pol.ShardFaultDomains() || sd.Shards() == 1 {
		if err := sd.InjectedFailure(); err != nil {
			sink.Counter("mnemo_client_run_failures_total").Inc()
			return RunStats{}, nil, err
		}
	}
	if err := sd.Load(p); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	st, err := runShardedAndFlush(ctx, cfg, w, sd, pol)
	return st, sd, err
}

// executeShardedReused is executeReused over a cluster: every shard is
// rewound to its post-Load snapshot under the new seed's per-shard
// derivations.
func executeShardedReused(ctx context.Context, cfg server.Config, w *ycsb.Workload, sd *server.ShardedDeployment, pol Policy) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	if !sd.ResetRun(cfg.Seed) {
		return RunStats{}, fmt.Errorf("client: cached cluster lost its run snapshot")
	}
	if !pol.ShardFaultDomains() || sd.Shards() == 1 {
		if err := sd.InjectedFailure(); err != nil {
			sink.Counter("mnemo_client_run_failures_total").Inc()
			return RunStats{}, err
		}
	}
	return runShardedAndFlush(ctx, cfg, w, sd, pol)
}

// runShardedAndFlush is runAndFlush over a cluster: the fanned-out
// replay, the shard-order telemetry flush (complete and cut-off shards
// alike), and the run-level counters and journal events under the
// parent workload's name.
func runShardedAndFlush(ctx context.Context, cfg server.Config, w *ycsb.Workload, sd *server.ShardedDeployment, pol Policy) (RunStats, error) {
	sink := cfg.Obs
	st, err := runSharded(ctx, cfg, sd, pol)
	sd.FlushObs()
	if err != nil {
		if errors.Is(err, ErrRunTimeout) {
			sink.Counter("mnemo_client_run_timeouts_total").Inc()
			sink.Eventf(obs.EventTimeout, "client", sd.Clock(), "%s on %s: %v",
				w.Spec.Name, cfg.Engine, err)
		} else {
			sink.Counter("mnemo_client_run_failures_total").Inc()
		}
		return st, err
	}
	st.Workload = w.Spec.Name
	sink.Counter("mnemo_client_runs_total").Inc()
	sink.Counter("mnemo_client_ops_total").Add(int64(st.Requests))
	sink.Counter("mnemo_client_reads_total").Add(int64(st.Reads))
	sink.Counter("mnemo_client_writes_total").Add(int64(st.Writes))
	if st.ShardsFailed > 0 {
		sink.Counter("mnemo_client_shards_failed_total").Add(int64(st.ShardsFailed))
		sink.Eventf(obs.EventDegraded, "client", st.Runtime,
			"%s on %s: partial merge, %d/%d shards dead within fault budget",
			w.Spec.Name, cfg.Engine, st.ShardsFailed, sd.Shards())
	}
	sink.Eventf(obs.EventMeasureEnd, "client", st.Runtime, "%s on %s: %d ops, %.0f ops/s",
		w.Spec.Name, cfg.Engine, st.Requests, st.ThroughputOpsSec)
	return st, err
}

// hedgeSeedStride places a shard's hedged re-execution in its own seed
// domain, disjoint from the repetition stride (1009), the retry stride
// (15485863) and the shard stride (524287) within any realistic grid.
const hedgeSeedStride = 7368787

// runSharded replays every shard and merges. A one-shard cluster runs
// inline on the calling goroutine — no pool, so its telemetry stream
// (and everything else) is indistinguishable from the single-deployment
// path. Larger clusters fan out across the shared worker budget
// (pool.Budget): each worker drives whole shards, and composition with
// outer fan-outs (validation points × repetitions) cannot oversubscribe
// the machine.
//
// With the policy's shard fault-domain knobs zeroed, any shard fault
// fails the whole scatter-gather, exactly as before fault domains
// existed. Otherwise each shard is its own fault domain: faulted shards
// are retried in place up to pol.ShardRetries (ResetShard under a
// retry-stride seed), straggler shards are hedged (see
// hedgeStragglers), and up to pol.ShardFaultBudget permanently dead
// shards are skipped by the merge, degrading the run to a partial
// result instead of failing it. Every remediation decision derives only
// from seeds and simulated clocks, so the merged result is bit-identical
// across goroutine schedules and worker counts.
func runSharded(ctx context.Context, cfg server.Config, sd *server.ShardedDeployment, pol Policy) (RunStats, error) {
	n := sd.Shards()
	if n == 1 {
		st, err := RunCtx(ctx, sd.Dep(0), sd.Sub(0), cfg.RunTimeout)
		if err != nil {
			return RunStats{}, err
		}
		return st, nil
	}
	per := make([]RunStats, n)
	errs := make([]error, n)
	retries := make([]int, n)
	ctx = pool.EnsureBudget(ctx)
	faultDomains := pol.ShardFaultDomains()
	if perr := pool.RunObs(ctx, n, n, cfg.Obs, func(s int) {
		if faultDomains {
			per[s], retries[s], errs[s] = runShardAttempts(ctx, cfg, sd, s, pol)
		} else {
			per[s], errs[s] = RunCtx(ctx, sd.Dep(s), sd.Sub(s), cfg.RunTimeout)
		}
	}); perr != nil {
		return RunStats{}, perr
	}
	if !faultDomains {
		for s, err := range errs {
			if err != nil {
				return RunStats{}, fmt.Errorf("client: shard %d: %w", s, err)
			}
		}
		return mergeShardRuns(per), nil
	}
	// Cancellation mid-scatter is never remediated — surface it before
	// hedging or budget accounting can dress it up as a shard fault.
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	hedgedCount, err := hedgeStragglers(ctx, cfg, sd, per, errs, pol)
	if err != nil {
		return RunStats{}, err
	}
	alive := make([]RunStats, 0, n)
	var reasons []string
	var firstErr error
	failed, totalRetries := 0, 0
	for s := 0; s < n; s++ {
		totalRetries += retries[s]
		if errs[s] == nil {
			alive = append(alive, per[s])
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = errs[s]
		}
		reasons = append(reasons, fmt.Sprintf("shard %d: %v", s, errs[s]))
		cfg.Obs.Eventf(obs.EventShardDropped, "client", 0, "shard %d dead after %d retries: %v",
			s, retries[s], errs[s])
	}
	if failed > pol.ShardFaultBudget {
		return RunStats{}, fmt.Errorf("client: %d of %d shards failed, fault budget %d: %w",
			failed, n, pol.ShardFaultBudget, firstErr)
	}
	if len(alive) == 0 {
		return RunStats{}, fmt.Errorf("client: all %d shards failed: %w", n, firstErr)
	}
	agg := mergeShardRuns(alive)
	agg.ShardsFailed = failed
	agg.ShardsHedged = hedgedCount
	agg.ShardsRetried = totalRetries
	if failed > 0 {
		agg.Degraded = true
		agg.DegradedReasons = reasons
	}
	return agg, nil
}

// runShardAttempts executes one shard as its own fault domain: attempt
// 0 runs the member exactly as built (so healthy shards stay
// bit-identical to the legacy path), and each injected fail, crash or
// timeout fault rewinds just that member under the retry-stride seed —
// up to pol.ShardRetries times — before the shard is declared dead.
// Cancellation is never retried. Returns the shard's stats, the retry
// attempts spent, and the final error of a dead shard.
func runShardAttempts(ctx context.Context, cfg server.Config, sd *server.ShardedDeployment, s int, pol Policy) (RunStats, int, error) {
	retried := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !sd.ResetShard(s, sd.MemberSeed(cfg.Seed, s)+int64(attempt)*attemptSeedStride) {
				return RunStats{}, retried, fmt.Errorf("client: shard %d: reset for retry failed", s)
			}
		}
		d := sd.Dep(s)
		err := d.InjectedFailure()
		var st RunStats
		if err == nil {
			st, err = RunCtx(ctx, d, sd.Sub(s), cfg.RunTimeout)
		}
		if err == nil {
			return st, retried, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return RunStats{}, retried, err
		}
		if attempt >= pol.ShardRetries {
			return RunStats{}, retried, err
		}
		retried++
		cfg.Obs.Counter("mnemo_client_shard_retries_total").Inc()
		cfg.Obs.Eventf(obs.EventRetry, "client", 0, "shard %d attempt %d failed: %v", s, attempt, err)
	}
}

// hedgeStragglers speculatively re-executes straggler shards. A
// straggler is detected post-hoc and deterministically: among the
// shards that survived the scatter, any whose simulated runtime exceeds
// pol.HedgeFactor× the median surviving runtime is re-run — all hedges
// concurrently on the shared pool budget — under the hedge-stride seed,
// and the faster execution wins per shard (simulated clocks, so the
// comparison is exact and schedule-independent). A hedge that errors or
// ties loses: hedging never worsens a run. Needs ≥ 2 survivors for a
// meaningful median; fewer disable it. per is updated in place with the
// winners; the returned count is how many shards were hedged.
func hedgeStragglers(ctx context.Context, cfg server.Config, sd *server.ShardedDeployment, per []RunStats, errs []error, pol Policy) (int, error) {
	if pol.HedgeFactor <= 0 {
		return 0, nil
	}
	var times []float64
	for s := range errs {
		if errs[s] == nil {
			times = append(times, float64(per[s].Runtime))
		}
	}
	if len(times) < 2 {
		return 0, nil
	}
	threshold := pol.HedgeFactor * stats.Median(times)
	var targets []int
	for s := range errs {
		if errs[s] == nil && float64(per[s].Runtime) > threshold {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 {
		return 0, nil
	}
	hstats := make([]RunStats, len(targets))
	herrs := make([]error, len(targets))
	if perr := pool.RunObs(ctx, len(targets), len(targets), cfg.Obs, func(j int) {
		s := targets[j]
		if !sd.ResetShard(s, sd.MemberSeed(cfg.Seed, s)+hedgeSeedStride) {
			herrs[j] = fmt.Errorf("client: shard %d: reset for hedge failed", s)
			return
		}
		d := sd.Dep(s)
		if err := d.InjectedFailure(); err != nil {
			herrs[j] = err
			return
		}
		hstats[j], herrs[j] = RunCtx(ctx, d, sd.Sub(s), cfg.RunTimeout)
	}); perr != nil {
		return 0, perr
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for j, s := range targets {
		cfg.Obs.Counter("mnemo_client_shard_hedges_total").Inc()
		won := herrs[j] == nil && hstats[j].Runtime < per[s].Runtime
		cfg.Obs.Eventf(obs.EventHedge, "client", per[s].Runtime,
			"shard %d hedged (runtime %v > %.1fx median); hedge won: %t", s, per[s].Runtime, pol.HedgeFactor, won)
		if won {
			per[s] = hstats[j]
		}
	}
	return len(targets), nil
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
