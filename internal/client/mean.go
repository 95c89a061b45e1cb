package client

import (
	"context"
	"fmt"

	"mnemo/internal/obs"
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

// execute runs one measurement. A runner holding a cluster rewinds it
// to its post-Load snapshot under the new seed's per-shard derivations
// (server.ShardedDeployment.ResetRun); otherwise it builds a cluster of
// max(cfg.Shards, 1) members and loads every shard under the (remapped)
// placement. Either way it then replays, merges, flushes the shard
// telemetry (complete and failed replays alike) and publishes the
// run-level counters and journal events under the parent workload's
// name. Both paths emit the same event and counter sequence and measure
// bit-identically, so an observer cannot tell them apart.
//
// A fresh cluster is cached after its run, never before: the run itself
// decides Reusable (it prices the cost table, and a per-op frame or a
// migration latches the cluster as mutated).
func (r *meanRunner) execute(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	sd := r.sd
	if sd == nil {
		var err error
		if sd, err = server.NewShardedDeployment(cfg, w); err == nil {
			err = sd.Load(p)
		}
		if err != nil {
			sink.Counter("mnemo_client_run_failures_total").Inc()
			return RunStats{}, err
		}
	} else if !sd.ResetRun(cfg.Seed) {
		return RunStats{}, fmt.Errorf("client: cached cluster lost its run snapshot")
	}
	st, err := runSharded(ctx, cfg, sd)
	sd.FlushObs()
	if r.sd == nil && sd.Reusable() {
		r.sd = sd
	}
	if err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return st, err
	}
	st.Workload = w.Spec.Name
	publishRun(cfg, w.Spec.Name, st)
	return st, nil
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
	// One reusable runner per pool worker, handed out through a free
	// list: a worker grabs any idle runner, so a batch-capable deployment
	// is populated once per worker and rewound for each further
	// repetition that worker executes. Which runner serves which
	// repetition is scheduling-dependent — and irrelevant, since fresh
	// and rewound deployments measure bit-identically. pool.Map shares
	// one worker budget with any nested per-shard fan-out (and any outer
	// measuring call), so composed layers cannot oversubscribe.
	nrunners := pool.Workers(workers, runs)
	runners := make(chan *meanRunner, nrunners)
	for k := 0; k < nrunners; k++ {
		runners <- new(meanRunner)
	}
	out, err := pool.Map(ctx, runs, workers, cfg.Obs, func(ctx context.Context, i int) (RunStats, error) {
		r := <-runners
		c := cfg
		c.Seed = cfg.Seed + int64(i)*runSeedStride
		st, err := r.execute(ctx, c, w, p)
		runners <- r
		if err != nil {
			return st, fmt.Errorf("client: repetition %d (seed %d): %w", i, c.Seed, err)
		}
		return st, nil
	})
	if err != nil {
		return RunStats{}, err
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
