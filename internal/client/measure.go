package client

import (
	"context"
	"fmt"

	"mnemo/internal/obs"
	"mnemo/internal/pool"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Leg is one measured execution of a measuring call: a deployment
// configuration and the placement it runs under. Name prefixes the
// leg's error ("core: FastMem baseline: …").
type Leg struct {
	Name      string
	Cfg       server.Config
	Placement server.Placement
}

// Measure is the measuring call (DESIGN.md §12): it executes every leg
// `runs` times (ExecuteMeanCtx) and returns the legs' aggregates in leg
// order. Legs fan out across at most `workers` goroutines (≤ 0 =
// GOMAXPROCS), and every leg, repetition and shard shares one worker
// budget (pool.Map) and one LLC walk per trace (ShareLLC). The legs are
// independent simulations with fixed seeds, so the result is
// bit-identical to measuring them back to back. A pool error
// (cancellation, a contained panic) is returned as is; otherwise the
// lowest failing leg's error wins, prefixed with its Name.
func Measure(ctx context.Context, w *ycsb.Workload, runs, workers int, sink *obs.Sink, legs []Leg) ([]RunStats, error) {
	ctx, release := ShareLLC(ctx)
	defer release()
	return pool.Map(ctx, len(legs), workers, sink, func(ctx context.Context, i int) (RunStats, error) {
		leg := &legs[i]
		st, err := ExecuteMeanCtx(ctx, leg.Cfg, w, leg.Placement, runs, 0)
		if err != nil {
			return st, fmt.Errorf("%s: %w", leg.Name, err)
		}
		return st, nil
	})
}
