package core

import (
	"context"

	"mnemo/internal/ycsb"
)

// Report is the full output of one profiling session: baselines, the key
// ordering, the estimate curve, and (if an SLO was supplied) the advised
// sizing.
type Report struct {
	Workload string
	Engine   string
	// Policy is the tiering policy that produced the ordering ("touch",
	// "mnemot", "external", or any registered policy name).
	Policy    string
	Baselines Baselines
	Ordering  Ordering
	Curve     *Curve
	Advice    *Advice
	// Degraded marks a report whose baselines were aggregated from fewer
	// runs than requested (failed or outlier runs dropped per the
	// config's resilience policy); the per-baseline RunStats carry the
	// exact RunsUsed/RunsRequested/RunsRetried counts.
	Degraded bool
}

// Profile runs the complete Mnemo pipeline for the workload under one
// tiering policy: baselines via the Sensitivity Engine, ordering via the
// policy's Pattern Engine, the Estimate Engine's curve, and — when
// maxSlowdown > 0 — the advisor's sweet spot. It is the one-shot form of
// a Session; to profile several policies against one measurement, use
// NewSession and Session.Compare. The context cancels the measurement
// sweeps; a cancelled profile returns ctx's error and no report.
func Profile(ctx context.Context, cfg Config, w *ycsb.Workload, p TieringPolicy, maxSlowdown float64) (*Report, error) {
	s, err := NewSession(cfg, w)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, p, maxSlowdown)
}

// ProfileWithOrdering runs the pipeline with a caller-supplied ordering
// (deployment mode 2b: an existing tiering solution's DRAM key
// allocations, already resolved to an Ordering).
func ProfileWithOrdering(ctx context.Context, cfg Config, w *ycsb.Workload, ord Ordering, maxSlowdown float64) (*Report, error) {
	return Profile(ctx, cfg, w, fixedPolicy{ord: ord}, maxSlowdown)
}
