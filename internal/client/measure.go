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
// configuration and the placement it runs under. A non-empty Name
// prefixes the leg's error ("core: FastMem baseline: …"); a nameless
// leg's error is returned as is.
type Leg struct {
	Name      string
	Cfg       server.Config
	Placement server.Placement
}

// Measure is the measuring call (DESIGN.md §12), the one way a fresh
// cluster replays a workload: it executes every leg `runs` times,
// repetition i under seed Cfg.Seed + i·1009, and returns the legs'
// per-field means in leg order. Legs whose runs differ only in seed and
// in a uniform placement (laneGroups) — the FastMem and SlowMem
// baselines — are measured as the lanes of one cluster: one Load and
// one engine walk per repetition and shard serve them all. Each fan-out
// of the call — the groups, and each group's repetitions — runs across
// at most `workers` goroutines (≤ 0 = GOMAXPROCS), all under one worker
// budget (pool.Map), and every run is priced from one LLC walk per
// trace: Measure opens a server.LLCShare and closes it before it
// returns. Every leg is an independent simulation with a fixed seed,
// and repetitions fold in run-index order, so the result is
// bit-identical for every worker count and to measuring the legs back
// to back. A pool error (cancellation, a contained panic) is returned
// as is; otherwise the lowest failing leg's error wins — of its lowest
// failing repetition — prefixed with its Name.
func Measure(ctx context.Context, w *ycsb.Workload, runs, workers int, sink *obs.Sink, legs []Leg) ([]RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sh := server.NewLLCShare(ctx)
	defer sh.Close()
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
		sts, k, err := executeMean(ctx, group, w, runs, workers, sh)
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
			if name := legs[failed].Name; name != "" {
				return nil, fmt.Errorf("%s: %w", name, m.err)
			}
			return nil, m.err
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
