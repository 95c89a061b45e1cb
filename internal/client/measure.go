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
// order. Legs whose runs differ only in seed and in a uniform placement
// (laneGroups) — the FastMem and SlowMem baselines — are measured as
// the lanes of one cluster: one Load and one engine walk per repetition
// and shard serve them all. The groups fan out across at most `workers`
// goroutines (≤ 0 = GOMAXPROCS), and every group, repetition and shard
// shares one worker budget (pool.Map) and one LLC walk per trace
// (ShareLLC). Every leg is an independent simulation with a fixed seed,
// so the result is bit-identical to measuring the legs back to back. A
// pool error (cancellation, a contained panic) is returned as is;
// otherwise the lowest failing leg's error wins, prefixed with its Name.
func Measure(ctx context.Context, w *ycsb.Workload, runs, workers int, sink *obs.Sink, legs []Leg) ([]RunStats, error) {
	ctx, release := ShareLLC(ctx)
	defer release()
	groups := laneGroups(legs)
	type measured struct {
		sts []RunStats
		leg int // the failing leg, with err
		err error
	}
	out, err := pool.Map(ctx, len(groups), workers, sink, func(ctx context.Context, g int) (measured, error) {
		group := make([]Leg, len(groups[g]))
		for k, i := range groups[g] {
			group[k] = legs[i]
		}
		sts, k, err := executeMean(ctx, group, w, runs, 0)
		return measured{sts: sts, leg: groups[g][k], err: err}, nil
	})
	if err != nil {
		return nil, err
	}
	failed := -1
	for _, m := range out {
		if m.err != nil && (failed < 0 || m.leg < failed) {
			failed = m.leg
		}
	}
	res := make([]RunStats, len(legs))
	for g, m := range out {
		if m.err != nil && m.leg == failed {
			return nil, fmt.Errorf("%s: %w", legs[failed].Name, m.err)
		}
		for k, i := range groups[g] {
			if m.err == nil {
				res[i] = m.sts[k]
			}
		}
	}
	return res, nil
}

// laneGroups partitions the legs, in leg order, into the groups one
// cluster can measure as lanes: a leg joins the first group whose first
// leg it matches — the same configuration but for the seed, no adaptive
// source, and both placements uniform (AllFast, AllSlow). With every
// record on one engine instance the engine's traces do not depend on
// the tier, so one walk prices every lane of the group.
func laneGroups(legs []Leg) [][]int {
	var groups [][]int
	for i := range legs {
		joined := false
		for g, group := range groups {
			if lanesWith(&legs[group[0]], &legs[i]) {
				groups[g] = append(group, i)
				joined = true
				break
			}
		}
		if !joined {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// lanesWith reports whether leg b can be a lane of a cluster whose lane
// 0 is leg a.
func lanesWith(a, b *Leg) bool {
	if a.Cfg.Adaptive != nil || b.Cfg.Adaptive != nil || a.Placement.Dense() || b.Placement.Dense() {
		return false
	}
	ca, cb := a.Cfg, b.Cfg
	ca.Seed, cb.Seed = 0, 0
	return ca == cb
}
