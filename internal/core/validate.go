package core

import (
	"context"
	"fmt"
	"math"

	"mnemo/internal/client"
	"mnemo/internal/pool"
	"mnemo/internal/ycsb"
)

// ValidationPoint pairs an estimated curve point with a real measured
// execution at the same tiering.
type ValidationPoint struct {
	Point    CurvePoint
	Measured client.RunStats
	// ThroughputErrPct is the paper's error metric (r−e)/r·100% between
	// the real throughput r and the estimate e.
	ThroughputErrPct float64
	// AvgLatencyErrPct is the same metric on average request latency
	// (Fig 8c).
	AvgLatencyErrPct float64
}

// Validate executes the workload at `samples` evenly spaced tierings of
// the curve (excluding the endpoints, which were measured as baselines)
// and reports the estimate errors — the raw material of Fig 8a/8c.
// Points execute in parallel across GOMAXPROCS workers; see
// ValidateWorkers for the determinism contract.
func Validate(ctx context.Context, cfg Config, w *ycsb.Workload, c *Curve, ord Ordering, samples int) ([]ValidationPoint, error) {
	return ValidateWorkers(ctx, cfg, w, c, ord, samples, 0)
}

// validateJob is one deduplicated sample point of a validation sweep:
// the curve index k to measure and the sample index i whose seed stride
// the measurement inherits.
type validateJob struct {
	i, k int
}

// validateJobs enumerates the sweep's sample points, skipping the
// endpoints and collapsing duplicates: the integer sample spacing
// k = i·keys/(samples+1) repeats curve indices whenever samples+1
// exceeds keys, and re-measuring the same tiering would double-weight
// it in the Fig 8a error distribution. Each surviving point keeps the
// smallest sample index that produced it, so its derived seed — and
// therefore every measured number — is unchanged from the sequential
// sweep that simply skipped nothing.
func validateJobs(samples, keys int) []validateJob {
	var jobs []validateJob
	lastK := -1
	for i := 1; i <= samples; i++ {
		k := i * keys / (samples + 1)
		if k <= 0 || k >= keys || k == lastK {
			continue
		}
		lastK = k
		jobs = append(jobs, validateJob{i: i, k: k})
	}
	return jobs
}

// ValidateWorkers is Validate with an explicit worker bound (≤ 0 =
// GOMAXPROCS). Every sample point is an independent measurement — its
// own placement, deployments and noise streams, seeded only by the
// point's sample index — so points fan out over a bounded pool and fold
// in sample order, keeping the output bit-identical for every worker
// count; workers=1 is the serial reference execution of the same code
// path.
func ValidateWorkers(ctx context.Context, cfg Config, w *ycsb.Workload, c *Curve, ord Ordering, samples, workers int) ([]ValidationPoint, error) {
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: samples %d must be positive", samples)
	}
	keys := len(ord.Keys)
	if keys+1 != len(c.Points) {
		return nil, fmt.Errorf("core: curve/ordering mismatch (%d points, %d keys)", len(c.Points), keys)
	}
	jobs := validateJobs(samples, keys)
	var pe PlacementEngine
	out := make([]ValidationPoint, len(jobs))
	errs := make([]error, len(jobs))
	// One worker budget for the whole sweep: the nested repetition and
	// per-shard fan-outs below share it instead of multiplying into
	// points × runs × shards goroutines.
	ctx = pool.EnsureBudget(ctx)
	if perr := pool.RunObs(ctx, len(jobs), workers, ncfg.Server.Obs, func(j int) {
		job := jobs[j]
		point := c.Points[job.k]
		placement, err := pe.PlacementFor(ord, point)
		if err != nil {
			errs[j] = err
			return
		}
		// Each validation run is an independent execution with its own
		// noise stream, like a fresh run on the testbed. The sweep
		// validates the *static* estimate curve, so adaptive knobs are
		// stripped: measuring a migrated placement against a static
		// estimate would conflate model error with policy effect.
		runCfg := ncfg.Server
		runCfg.Adaptive, runCfg.EpochOps = nil, 0
		runCfg.Seed += int64(job.i) * 104729
		measured, err := client.ExecuteMeanCtx(ctx, runCfg, w, placement, ncfg.Runs, 0)
		if err != nil {
			errs[j] = fmt.Errorf("core: validating point %d: %w", job.k, err)
			return
		}
		vp := ValidationPoint{Point: point, Measured: measured}
		if measured.ThroughputOpsSec > 0 {
			vp.ThroughputErrPct = (measured.ThroughputOpsSec - point.EstThroughputOps) /
				measured.ThroughputOpsSec * 100
		}
		if measured.AvgNs > 0 {
			vp.AvgLatencyErrPct = (measured.AvgNs - point.EstAvgLatencyNs) /
				measured.AvgNs * 100
		}
		out[j] = vp
	}); perr != nil {
		return nil, perr
	}
	// First error in sample order wins, matching the sequential sweep's
	// abort-at-first-failure behavior.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AbsErrors extracts |throughput error| percentages from validation
// points, the quantity boxplotted in Fig 8a.
func AbsErrors(points []ValidationPoint) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = math.Abs(p.ThroughputErrPct)
	}
	return out
}
