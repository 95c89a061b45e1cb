package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"mnemo/internal/client"
	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// baselineMeasurements counts completed Fast+Slow baseline executions
// across the package — the observable the Session artifact-reuse tests
// assert on ("N policies, exactly one measurement").
var baselineMeasurements atomic.Int64

// SensitivityEngine obtains the real performance baselines by executing
// the workload "as-is" in the two extreme configurations (paper §IV,
// component 1): a customized YCSB client run against an all-FastMem and
// an all-SlowMem deployment, extracting total runtime and average read
// and write response times.
type SensitivityEngine struct {
	cfg Config
}

// NewSensitivityEngine builds the engine, applying config defaults.
func NewSensitivityEngine(cfg Config) (*SensitivityEngine, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &SensitivityEngine{cfg: n}, nil
}

// Baselines executes the workload under both extreme placements and
// returns the measured baselines. The two executions are independent
// simulations, so they run concurrently; each owns its deployment and
// noise stream and keeps its fixed seed, so the result is bit-identical
// to running them back to back. Cancelling ctx aborts both mid-sweep,
// and a failing run fails its baseline.
func (s *SensitivityEngine) Baselines(ctx context.Context, w *ycsb.Workload) (Baselines, error) {
	// Baselines measure the static extremes by definition: an adaptive
	// policy would find nothing to migrate on an all-fast or all-slow
	// placement anyway, so the knobs are stripped to keep the estimate
	// model's inputs on the exact legacy path.
	fastCfg := s.cfg.Server
	fastCfg.Adaptive, fastCfg.EpochOps = nil, 0
	// Decorrelate the noise streams of the two baseline runs, as two
	// separate physical executions would be.
	slowCfg := fastCfg
	slowCfg.Seed += 7919

	jobs := []struct {
		name string
		cfg  server.Config
		p    server.Placement
	}{
		{"FastMem", fastCfg, server.AllFast()},
		{"SlowMem", slowCfg, server.AllSlow()},
	}
	var results [2]client.RunStats
	var errs [2]error
	// Both baselines and their nested repetition/shard fan-outs share
	// one worker budget (see pool.Budget).
	ctx = pool.EnsureBudget(ctx)
	if err := pool.RunObs(ctx, len(jobs), len(jobs), s.cfg.Server.Obs, func(i int) {
		results[i], errs[i] = client.ExecuteMeanCtx(ctx, jobs[i].cfg, w, jobs[i].p, s.cfg.Runs, 0)
	}); err != nil {
		return Baselines{}, err
	}
	for i, err := range errs {
		if err != nil {
			return Baselines{}, fmt.Errorf("core: %s baseline: %w", jobs[i].name, err)
		}
	}
	baselineMeasurements.Add(1)
	return Baselines{Fast: results[0], Slow: results[1]}, nil
}
