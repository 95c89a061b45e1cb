package tune

import (
	"context"
	"fmt"

	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/ycsb"
)

// Naive evaluates the candidates through the frozen per-config
// pipeline: one fresh, unshared profiling session per candidate, each
// re-measuring its own baselines — what evaluating N configs cost
// before the content-addressed cache. It is the benchmark and
// equivalence reference for Sweep and is intentionally kept dumb.
func Naive(ctx context.Context, cfg Config, w *ycsb.Workload, cands []Candidate) ([]Eval, error) {
	evals := make([]Eval, len(cands))
	for i, cand := range cands {
		pol, err := registry.NewParams(cand.Policy, cfg.Core.Server.Seed, cand.Params)
		if err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
		s, err := core.NewSession(cfg.Core, w)
		if err != nil {
			return nil, err
		}
		curve, err := s.Estimate(ctx, pol)
		if err != nil {
			return nil, fmt.Errorf("tune: candidate %s: %w", cand, err)
		}
		adv, err := core.Advise(curve, cfg.SLO)
		if err != nil {
			return nil, err
		}
		evals[i] = evalOf(cand, pol.Name(), curve, adv)
	}
	return evals, nil
}
