package core

import (
	"context"

	"mnemo/internal/client"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// MeasureBaselines is the Sensitivity Engine (paper §IV, component 1):
// it obtains the real performance baselines by executing the workload
// "as-is" in the two extreme configurations — a customized YCSB client
// run against an all-FastMem and an all-SlowMem deployment — extracting
// total runtime and average read and write response times. The two
// executions are the legs of one measuring call (client.Measure), so
// they run concurrently and bit-identically to running them back to
// back. Cancelling ctx aborts both mid-sweep, and a failing run fails
// its baseline.
func MeasureBaselines(ctx context.Context, cfg Config, w *ycsb.Workload) (Baselines, error) {
	n, err := cfg.normalized()
	if err != nil {
		return Baselines{}, err
	}
	// Baselines measure the static extremes by definition: an adaptive
	// policy would find nothing to migrate on an all-fast or all-slow
	// placement anyway, so the knobs are stripped to keep the estimate
	// model's inputs on the exact legacy path.
	fastCfg := n.Server.Static()
	// Decorrelate the noise streams of the two baseline runs, as two
	// separate physical executions would be.
	slowCfg := fastCfg
	slowCfg.Seed += 7919
	st, err := client.Measure(ctx, w, n.Runs, 0, n.Server.Obs, []client.Leg{
		{Name: "core: FastMem baseline", Cfg: fastCfg, Placement: server.AllFast()},
		{Name: "core: SlowMem baseline", Cfg: slowCfg, Placement: server.AllSlow()},
	})
	if err != nil {
		return Baselines{}, err
	}
	return Baselines{Fast: st[0], Slow: st[1]}, nil
}
