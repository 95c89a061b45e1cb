package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

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

// loads counts the member deployments the measuring calls have loaded.
var loads atomic.Int64

// executeLanes runs one repetition of a lane group — legs whose runs
// differ only in seed and uniform placement (laneGroups), leg k with
// seed legs[k].Cfg.Seed — and returns each leg's stats. It builds a
// fresh cluster of max(Shards, 1) members with lane k for leg k, loads
// it, attaches every member to the measuring call's LLC share llc, then
// replays, merges, flushes the shard telemetry (complete and failed
// replays alike) and publishes each leg's run-level counters and
// journal events under the parent workload's name. Lane for lane, it
// measures bit-identically to a cluster of one lane per leg. A failure
// is reported with the leg it belongs to: a lane whose tier cannot hold
// the dataset, or lane 0 for a failed replay.
func executeLanes(ctx context.Context, legs []Leg, w *ycsb.Workload, llc *server.LLCShare) ([]RunStats, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	cfg := legs[0].Cfg
	sink := cfg.Obs
	for _, leg := range legs {
		sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
			w.Spec.Name, leg.Cfg.Engine, leg.Cfg.Seed)
	}
	sd, err := server.NewShardedDeployment(cfg, w)
	if err == nil {
		for _, leg := range legs[1:] {
			sd.AddLane(leg.Placement.Default(), leg.Cfg.Seed-cfg.Seed)
		}
		err = sd.Load(legs[0].Placement)
		loads.Add(int64(sd.Shards()))
	}
	if err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		lane := 0
		var le *server.LaneError
		if errors.As(err, &le) {
			lane = le.Lane
		}
		return nil, lane, err
	}
	for s := range sd.Shards() {
		sd.Dep(s).AttachLLCStream(llc, sd.Sub(s))
	}
	sts, err := runSharded(ctx, cfg, sd)
	sd.FlushObs()
	if err != nil {
		sink.Counter("mnemo_client_run_failures_total").Add(int64(len(legs)))
		return nil, 0, err
	}
	for k, leg := range legs {
		sts[k].Workload = w.Spec.Name
		publishRun(leg.Cfg, w.Spec.Name, sts[k])
	}
	return sts, 0, nil
}

// repetition is one repetition's outcome in executeMean: the stats of
// every leg, or the error and the leg it belongs to.
type repetition struct {
	sts []RunStats
	leg int
	err error
}

// executeMean measures a lane group for Measure: every repetition
// measures all the legs on one fresh cluster (executeLanes), leg k of
// repetition i under seed legs[k].Cfg.Seed + i·1009, priced from the
// share sh. Repetitions fan out over a bounded worker pool (workers ≤ 0
// = GOMAXPROCS) and each leg's fold in run-index order (foldRuns), so
// the aggregate is bit-identical across worker counts. A replay is
// deterministic, so a repetition that fails fails the aggregate: on
// failure it returns the error of the lowest failing leg — of its
// lowest failing repetition — and the leg's index; a pool error
// (cancellation, a contained panic) is returned as is, as leg 0's.
func executeMean(ctx context.Context, legs []Leg, w *ycsb.Workload, runs, workers int, sh *server.LLCShare) ([]RunStats, int, error) {
	if runs <= 0 {
		return nil, 0, fmt.Errorf("client: runs %d must be positive", runs)
	}
	out, err := pool.Map(ctx, runs, workers, legs[0].Cfg.Obs, func(ctx context.Context, i int) (repetition, error) {
		rep := make([]Leg, len(legs))
		for k, leg := range legs {
			rep[k] = leg
			rep[k].Cfg.Seed += int64(i) * runSeedStride
		}
		sts, k, err := executeLanes(ctx, rep, w, sh)
		if err != nil {
			err = fmt.Errorf("client: repetition %d (seed %d): %w", i, rep[k].Cfg.Seed, err)
		}
		return repetition{sts: sts, leg: k, err: err}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	var failed *repetition
	for i := range out {
		if rep := &out[i]; rep.err != nil && (failed == nil || rep.leg < failed.leg) {
			failed = rep
		}
	}
	if failed != nil {
		return nil, failed.leg, failed.err
	}
	agg := make([]RunStats, len(legs))
	col := make([]RunStats, runs)
	for k := range agg {
		for i := range out {
			col[i] = out[i].sts[k]
		}
		agg[k] = foldRuns(col)
	}
	return agg, 0, nil
}

// foldRuns averages the repetitions in ascending run-index order — the
// deterministic fold that keeps parallel aggregates bit-identical to
// serial.
func foldRuns(out []RunStats) RunStats {
	agg := out[0]
	for _, st := range out[1:] {
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
