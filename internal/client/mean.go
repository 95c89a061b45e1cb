package client

import (
	"context"
	"fmt"

	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// runSeedStride decorrelates repetitions: repetition i measures with
// seed cfg.Seed + i·1009. It must not change, or aggregates stop being
// bit-identical to the seed repo's.
const runSeedStride = 1009

// meanRunner is one worker's reusable execution state across
// repetitions: the first successfully loaded Reusable cluster is kept
// and rewound (ResetRun) for every later repetition the worker picks
// up, so an N-run aggregate pays the populate-and-quiesce cost once per
// worker instead of once per run. A cluster that cannot be rewound
// (per-op frames, migrations) is never cached, and each repetition then
// builds a fresh one. Frame routing and migrations depend on the trace,
// not on the noise seed, so a cached cluster stays Reusable.
type meanRunner struct {
	sd *server.ShardedDeployment
}

// execute runs one measurement through the cached cluster when one is
// available, falling back to — and possibly caching — a fresh cluster
// otherwise. Both paths produce bit-identical stats, errors and
// telemetry; see executeReused.
func (r *meanRunner) execute(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	if r.sd != nil {
		return executeReused(ctx, cfg, w, r.sd)
	}
	st, sd, err := executeFresh(ctx, cfg, w, p)
	if sd != nil && sd.Reusable() {
		r.sd = sd
	}
	return st, err
}

// ExecuteMeanCtx is ExecuteMeanWorkers with cancellation: it runs the
// workload `runs` times, repetition i under seed cfg.Seed + i·1009, and
// returns the per-field means. Repetitions fan out over a bounded
// worker pool (workers ≤ 0 = GOMAXPROCS) and fold in run-index order, so
// the aggregate is bit-identical across worker counts. A replay is
// deterministic, so a repetition that fails fails the aggregate: the
// error of the lowest failing repetition is returned.
func ExecuteMeanCtx(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int) (RunStats, error) {
	if runs <= 0 {
		return RunStats{}, fmt.Errorf("client: runs %d must be positive", runs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Share one worker budget with any nested per-shard fan-out (and any
	// outer validation sweep): composed layers cannot oversubscribe.
	ctx = pool.EnsureBudget(ctx)
	out := make([]RunStats, runs)
	errs := make([]error, runs)
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
		c := cfg
		c.Seed = cfg.Seed + int64(i)*runSeedStride
		if out[i], errs[i] = r.execute(ctx, c, w, p); errs[i] != nil {
			errs[i] = fmt.Errorf("client: repetition %d (seed %d): %w", i, c.Seed, errs[i])
		}
		runners <- r
	}); err != nil {
		return RunStats{}, err
	}
	for _, err := range errs {
		if err != nil {
			return RunStats{}, err
		}
	}
	return foldRuns(out), nil
}

// foldRuns averages the repetitions in ascending run-index order — the
// deterministic fold that keeps parallel aggregates bit-identical to
// serial.
func foldRuns(out []RunStats) RunStats {
	agg := out[0]
	for _, st := range out[1:] {
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
	n := float64(len(out))
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
