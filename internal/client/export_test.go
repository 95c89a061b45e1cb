package client

import (
	"context"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// DeleteDense exposes the matrix's capture-shaped trace builder to the
// external test package.
var DeleteDense = deleteDense

// MeasureOne exposes the one-leg measuring call of the internal tests
// to the external test package.
var MeasureOne = measureOne

// EngineWalks reports how many member deployments the measuring calls
// have loaded, and how many trace replays — engine walks — the member
// deployments have served.
func EngineWalks() (loaded, walked int64) { return loads.Load(), walks.Load() }

// RunPrivate is the private walker's reference for a measuring call of
// one leg: `runs` repetitions, repetition i a fresh cluster of cfg under
// seed cfg.Seed + i·1009, loaded under p, each member replayed by RunCtx
// with no LLC share attached, the members merged and the repetitions
// folded as a measuring call merges and folds them.
func RunPrivate(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, runs int) (RunStats, error) {
	col := make([]RunStats, runs)
	for i := range col {
		c := cfg
		c.Seed += int64(i) * runSeedStride
		sd, err := server.NewShardedDeployment(c, w)
		if err == nil {
			err = sd.Load(p)
		}
		if err != nil {
			return RunStats{}, err
		}
		per := make([]RunStats, sd.Shards())
		for s := range per {
			if per[s], err = RunCtx(ctx, sd.Dep(s), sd.Sub(s), 0); err != nil {
				return RunStats{}, err
			}
		}
		col[i] = per[0]
		if len(per) > 1 {
			col[i] = mergeShardRuns(per)
		}
		col[i].Workload = w.Spec.Name
	}
	return foldRuns(col), nil
}
