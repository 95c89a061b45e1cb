package client

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mnemo/internal/obs"
	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

// ErrRunTimeout marks a measurement run whose simulated clock exceeded
// the per-run budget (server.Config.RunTimeout) — the way a stalled run
// on a real testbed is cut off by a watchdog. Detect with errors.Is.
var ErrRunTimeout = errors.New("client: run exceeded simulated time budget")

// Policy configures graceful degradation of repeated measurement runs:
// bounded, immediate retry for runs that fail or stall, and
// median-absolute-deviation rejection of runs that complete with
// outlier runtimes. The zero value is the strict legacy behavior —
// no retries, no rejection, any failed repetition aborts the aggregate.
type Policy struct {
	// Retries is the extra attempts allowed per repetition after a
	// failure; each attempt re-rolls the measurement seed. A retry re-runs
	// a deterministic in-process simulation, so it starts immediately:
	// there is no remote state to wait out.
	Retries int
	// MinRuns is the minimum surviving repetitions required for the
	// aggregate; ≤ 0 keeps strict mode (all must survive, and outlier
	// rejection is disabled). With MinRuns ≥ 1 the aggregate degrades to
	// the surviving runs instead of aborting, flagged via
	// RunStats.Degraded.
	MinRuns int
	// OutlierMAD rejects surviving runs whose runtime deviates from the
	// median by more than OutlierMAD× the median absolute deviation
	// (3.5 is conventional). 0 disables rejection. At least half the
	// runs always survive the gate, by the definition of the MAD.
	OutlierMAD float64
}

// Validate rejects malformed policies with errors naming the field.
func (p Policy) Validate() error {
	if p.Retries < 0 {
		return fmt.Errorf("client: Retries %d must be non-negative", p.Retries)
	}
	if p.MinRuns < 0 {
		return fmt.Errorf("client: MinRuns %d must be non-negative (0 means strict)", p.MinRuns)
	}
	if p.OutlierMAD < 0 {
		return fmt.Errorf("client: OutlierMAD %v must be non-negative", p.OutlierMAD)
	}
	if p.OutlierMAD > 0 && p.MinRuns == 0 {
		return fmt.Errorf("client: OutlierMAD %v requires MinRuns ≥ 1 (strict mode cannot drop runs)", p.OutlierMAD)
	}
	return nil
}

const (
	// runSeedStride decorrelates repetitions (the legacy stride — it must
	// not change, or aggregates stop being bit-identical to the seed
	// repo's) and attemptSeedStride decorrelates retry attempts of one
	// repetition.
	runSeedStride     = 1009
	attemptSeedStride = 15485863
)

// repOutcome is one repetition's final state after retries.
type repOutcome struct {
	stats   RunStats
	err     error
	retries int
}

// meanRunner is one worker's reusable execution state across
// repetitions: the first successfully loaded batch-capable deployment is
// kept and rewound (ResetRun) for every later repetition the worker
// picks up, so an N-run aggregate pays the populate-and-quiesce cost
// once per worker instead of once per run. Deployments that cannot be
// rewound (per-op replay path) are never cached, and each repetition
// then builds a fresh one exactly as before.
type meanRunner struct {
	d *server.Deployment
	// sd is the sharded analogue: the first successfully loaded
	// all-batch-capable cluster, rewound shard-by-shard for later
	// repetitions.
	sd *server.ShardedDeployment
}

// execute runs one measurement attempt through the cached deployment
// when one is available, falling back to — and possibly caching — a
// fresh deployment otherwise. Both paths produce bit-identical stats,
// errors and telemetry; see executeReused. Configs with Shards ≥ 1
// route through the cluster path (sharded.go) under the same caching
// discipline.
func (r *meanRunner) execute(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	if cfg.Shards >= 1 {
		if r != nil && r.sd != nil {
			return executeShardedReused(ctx, cfg, w, r.sd)
		}
		st, sd, err := executeShardedFresh(ctx, cfg, w, p)
		if r != nil && sd != nil && sd.Reusable() {
			r.sd = sd
		}
		return st, err
	}
	if r != nil && r.d != nil {
		return executeReused(ctx, cfg, w, r.d)
	}
	st, d, err := executeFresh(ctx, cfg, w, p)
	if r != nil && canReuse(d) {
		r.d = d
	}
	return st, err
}

// executeRepetition runs repetition i, retrying per the policy. Attempt
// a of repetition i measures with seed cfg.Seed + i·1009 + a·15485863,
// so attempt 0 reproduces the legacy seed schedule exactly and every
// retry is a fresh, deterministic re-measurement.
func executeRepetition(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, i int, pol Policy, r *meanRunner) repOutcome {
	var out repOutcome
	for attempt := 0; ; attempt++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*runSeedStride + int64(attempt)*attemptSeedStride
		st, err := r.execute(ctx, c, w, p)
		if err == nil {
			out.stats, out.err = st, nil
			return out
		}
		out.err = fmt.Errorf("client: repetition %d attempt %d (seed %d): %w", i, attempt, c.Seed, err)
		// Cancellation is not a measurement failure — never retry it.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return out
		}
		if attempt >= pol.Retries {
			return out
		}
		out.retries++
		cfg.Obs.Counter("mnemo_client_run_retries_total").Inc()
		cfg.Obs.Eventf(obs.EventRetry, "client", 0, "repetition %d attempt %d failed: %v", i, attempt, err)
	}
}

// rejectOutliers drops surviving repetitions whose runtime deviates from
// the median by more than gate× the MAD. With a degenerate deviation
// spread (MAD 0) only runs at the exact median survive — those are the
// majority by definition, so the result is never empty.
func rejectOutliers(out []repOutcome, survivors []int, gate float64) []int {
	if len(survivors) < 4 {
		return survivors
	}
	times := make([]float64, len(survivors))
	for j, i := range survivors {
		times[j] = float64(out[i].stats.Runtime)
	}
	med := stats.Median(times)
	devs := make([]float64, len(times))
	for j, x := range times {
		devs[j] = math.Abs(x - med)
	}
	mad := stats.Median(devs)
	kept := make([]int, 0, len(survivors))
	for j, i := range survivors {
		if devs[j] <= gate*mad {
			kept = append(kept, i)
		}
	}
	return kept
}

// ExecuteMeanCtx is the hardened repeated-measurement driver: ExecuteMean
// with cancellation, bounded retry, and outlier-rejecting degradation per
// the policy. Repetitions fan out over a bounded worker pool (workers ≤ 0
// = GOMAXPROCS) and fold in run-index order, so for any fixed policy the
// aggregate is bit-identical across worker counts; with the zero policy
// and no injected faults it is bit-identical to the legacy ExecuteMean.
//
// The returned RunStats carry the resilience summary: RunsRequested,
// RunsUsed (successful, outlier-surviving repetitions the aggregate is
// computed from), RunsRetried, and Degraded (RunsUsed < RunsRequested).
func ExecuteMeanCtx(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int, pol Policy) (RunStats, error) {
	if runs <= 0 {
		return RunStats{}, fmt.Errorf("client: runs %d must be positive", runs)
	}
	if err := pol.Validate(); err != nil {
		return RunStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Share one worker budget with any nested per-shard fan-out (and any
	// outer validation sweep): composed layers cannot oversubscribe.
	ctx = pool.EnsureBudget(ctx)
	out := make([]repOutcome, runs)
	// One reusable runner per pool worker, handed out through a free
	// list: a worker grabs any idle runner, so a batch-capable deployment
	// is populated once per worker and rewound for each further
	// repetition that worker executes. Which runner serves which
	// repetition is scheduling-dependent — and irrelevant, since fresh
	// and rewound deployments measure bit-identically.
	nrunners := pool.Workers(workers, runs)
	runners := make(chan *meanRunner, nrunners)
	for k := 0; k < nrunners; k++ {
		runners <- new(meanRunner)
	}
	if err := pool.RunObs(ctx, runs, workers, cfg.Obs, func(i int) {
		r := <-runners
		out[i] = executeRepetition(ctx, cfg, w, p, i, pol, r)
		runners <- r
	}); err != nil {
		return RunStats{}, err
	}

	var survivors []int
	var firstErr, lastErr error
	retried := 0
	for i := range out {
		retried += out[i].retries
		if out[i].err != nil {
			if firstErr == nil {
				firstErr = out[i].err
			}
			lastErr = out[i].err
			continue
		}
		survivors = append(survivors, i)
	}
	strict := pol.MinRuns <= 0
	if strict {
		if firstErr != nil {
			return RunStats{}, firstErr
		}
	} else if pol.OutlierMAD > 0 {
		kept := rejectOutliers(out, survivors, pol.OutlierMAD)
		if sink := cfg.Obs; sink.Enabled() && len(kept) < len(survivors) {
			keptSet := make(map[int]bool, len(kept))
			for _, i := range kept {
				keptSet[i] = true
			}
			for _, i := range survivors {
				if !keptSet[i] {
					sink.Counter("mnemo_client_outliers_rejected_total").Inc()
					sink.Eventf(obs.EventOutlierRejected, "client", out[i].stats.Runtime,
						"repetition %d runtime %v strayed beyond %.1f MADs", i, out[i].stats.Runtime, pol.OutlierMAD)
				}
			}
		}
		survivors = kept
	}
	minRuns := pol.MinRuns
	if strict {
		minRuns = runs
	}
	if len(survivors) < minRuns {
		err := lastErr
		if err == nil {
			err = fmt.Errorf("outlier rejection kept %d runs", len(survivors))
		}
		return RunStats{}, fmt.Errorf("client: %d of %d repetitions survived, need %d: %w",
			len(survivors), runs, minRuns, err)
	}

	agg := foldRuns(out, survivors)
	agg.RunsRequested = runs
	agg.RunsUsed = len(survivors)
	agg.RunsRetried = retried
	agg.Degraded = agg.RunsUsed < runs
	return agg, nil
}

// foldRuns averages the surviving repetitions in ascending run-index
// order — the deterministic fold that keeps parallel aggregates
// bit-identical to serial.
func foldRuns(out []repOutcome, survivors []int) RunStats {
	var agg RunStats
	for j, i := range survivors {
		st := out[i].stats
		if j == 0 {
			agg = st
			continue
		}
		agg.ReadBuckets = mergeBuckets(agg.ReadBuckets, st.ReadBuckets)
		agg.WriteBuckets = mergeBuckets(agg.WriteBuckets, st.WriteBuckets)
		agg.ReadLatency = mergeHistograms(agg.ReadLatency, st.ReadLatency)
		agg.WriteLatency = mergeHistograms(agg.WriteLatency, st.WriteLatency)
		agg.Runtime += st.Runtime
		agg.ThroughputOpsSec += st.ThroughputOpsSec
		agg.AvgReadNs += st.AvgReadNs
		agg.AvgWriteNs += st.AvgWriteNs
		agg.AvgNs += st.AvgNs
		agg.P50Ns += st.P50Ns
		agg.P95Ns += st.P95Ns
		agg.P99Ns += st.P99Ns
		agg.MaxNs += st.MaxNs
		agg.LLCHitRate += st.LLCHitRate
		// Migration telemetry sums (total traffic across the aggregate)
		// and the per-epoch rows merge by epoch index.
		agg.Epochs += st.Epochs
		agg.MovesApplied += st.MovesApplied
		agg.MigratedBytes += st.MigratedBytes
		agg.MigrationNs += st.MigrationNs
		agg.EpochTraffic = mergeEpochTraffic(agg.EpochTraffic, st.EpochTraffic)
	}
	n := float64(len(survivors))
	agg.Runtime = simclock.Duration(float64(agg.Runtime) / n)
	agg.ThroughputOpsSec /= n
	agg.AvgReadNs /= n
	agg.AvgWriteNs /= n
	agg.AvgNs /= n
	agg.P50Ns /= n
	agg.P95Ns /= n
	agg.P99Ns /= n
	agg.MaxNs /= n
	agg.LLCHitRate /= n
	return agg
}
