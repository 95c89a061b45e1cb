package mnemo

import (
	"context"
	"fmt"

	"mnemo/internal/pool"
)

// MatrixCell identifies one profiling job of a sweep and carries its
// result.
type MatrixCell struct {
	Workload string
	Engine   Engine
	Report   *Report
	Err      error
}

// MatrixRequest describes a profiling sweep: every workload is profiled
// on every engine — the shape of the paper's Fig 8a/Fig 9 evaluations,
// where 5 workloads × 3 stores are independent experiments.
type MatrixRequest struct {
	// Workloads are built-in workload names (see AllWorkloadNames), each
	// generated with the request's Seed.
	Workloads []string
	// Specs are custom workload specs profiled alongside the named
	// workloads; each spec's Name labels its cells and must not collide
	// with a Workloads entry or another spec.
	Specs []WorkloadSpec
	// Engines to profile; nil means all three. Duplicates are rejected —
	// a doubled engine would silently skew any summary computed over the
	// cells.
	Engines []Engine
	// Options applied to every cell (Store is overridden per cell).
	Options Options
	// Parallelism bounds concurrent profiling sessions; ≤ 0 uses
	// GOMAXPROCS. Each session is independent (own deployment, own
	// noise stream), so cells parallelize perfectly.
	Parallelism int
}

// ProfileMatrix runs the sweep, fanning cells out over a bounded worker
// pool. Cells are written into an index-addressed slice, so the returned
// order — workload input order (names first, then specs), then engine —
// is deterministic regardless of worker count. Every cell carries either
// a report or its error — one failed cell does not abort the sweep.
func ProfileMatrix(req MatrixRequest) ([]MatrixCell, error) {
	return ProfileMatrixContext(context.Background(), req)
}

// ProfileMatrixContext is ProfileMatrix with cancellation. On
// cancellation the completed cells keep their results, every cell that
// was cut short or never started carries the context's error, and the
// error is also returned — partial sweeps are usable but unmistakable.
// A panic inside one cell's profiling session is captured as that cell's
// Err (a *pool.PanicError carrying the stack); it never tears down the
// other cells or escapes to the caller.
func ProfileMatrixContext(ctx context.Context, req MatrixRequest) ([]MatrixCell, error) {
	if len(req.Workloads)+len(req.Specs) == 0 {
		return nil, fmt.Errorf("mnemo: ProfileMatrix needs at least one workload")
	}
	if _, _, err := req.Options.coreConfig(nil); err != nil {
		return nil, err
	}
	engines := req.Engines
	if len(engines) == 0 {
		engines = Engines()
	}
	seen := make(map[Engine]bool, len(engines))
	for _, e := range engines {
		if seen[e] {
			return nil, fmt.Errorf("mnemo: engine %v listed twice", e)
		}
		seen[e] = true
	}

	// Generate workloads up front (cheap, and shared across engines —
	// generation is deterministic and the profile path never mutates the
	// descriptor).
	names := make([]string, 0, len(req.Workloads)+len(req.Specs))
	byName := make(map[string]*Workload, len(req.Workloads)+len(req.Specs))
	for _, name := range req.Workloads {
		if _, dup := byName[name]; dup {
			return nil, fmt.Errorf("mnemo: workload %q listed twice", name)
		}
		w, err := WorkloadByName(name, req.Options.Seed)
		if err != nil {
			return nil, err
		}
		byName[name] = w
		names = append(names, name)
	}
	for _, spec := range req.Specs {
		if _, dup := byName[spec.Name]; dup {
			return nil, fmt.Errorf("mnemo: workload %q listed twice", spec.Name)
		}
		w, err := GenerateWorkload(spec)
		if err != nil {
			return nil, err
		}
		byName[spec.Name] = w
		names = append(names, spec.Name)
	}

	cells := make([]MatrixCell, 0, len(names)*len(engines))
	for _, name := range names {
		for _, e := range engines {
			cells = append(cells, MatrixCell{Workload: name, Engine: e})
		}
	}
	// Matrix cells and every fan-out nested inside a cell (baselines ×
	// repetitions × shards) share one worker budget.
	ctx = pool.EnsureBudget(ctx)
	sweepErr := pool.RunCtx(ctx, len(cells), req.Parallelism, func(i int) {
		cell := &cells[i]
		opts := req.Options
		opts.Store = cell.Engine
		if perr := pool.Guard(i, func() {
			cell.Report, cell.Err = ProfileContext(ctx, byName[cell.Workload], opts)
		}); perr != nil {
			cell.Report, cell.Err = nil, perr
		}
	})
	if sweepErr != nil {
		// Cells the pool never ran (or whose results were lost to the
		// abort) still must explain themselves.
		for i := range cells {
			if cells[i].Report == nil && cells[i].Err == nil {
				cells[i].Err = sweepErr
			}
		}
		return cells, sweepErr
	}
	return cells, nil
}
