package mnemo

import (
	"strings"
	"testing"
)

func TestProfileMatrixSweep(t *testing.T) {
	// Quick sweep: 2 workloads × 2 engines at reduced scale would need
	// custom specs, so use the YCSB 1KB workloads (fast to profile even
	// at full key count? no — use small custom via facade is not
	// supported by name). Instead run 1 workload × 3 engines.
	cells, err := ProfileMatrix(MatrixRequest{
		Workloads:   []string{"ycsb_c"},
		Options:     Options{Seed: 201, SLO: 0.10},
		Parallelism: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%v: %v", c.Workload, c.Engine, c.Err)
		}
		if c.Report == nil || c.Report.Advice == nil {
			t.Fatalf("%s/%v: missing report", c.Workload, c.Engine)
		}
	}
	// Sorted by workload then engine.
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Engine >= cells[i].Engine {
			t.Fatal("cells not sorted by engine")
		}
	}
}

func TestProfileMatrixMatchesSequential(t *testing.T) {
	// Parallel execution must be observationally identical to sequential
	// profiling (independent deployments, deterministic seeds).
	par, err := ProfileMatrix(MatrixRequest{
		Workloads:   []string{"ycsb_b"},
		Engines:     []Engine{RedisLike},
		Options:     Options{Seed: 202, SLO: 0.10},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadByName("ycsb_b", 202)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Profile(w, Options{Store: RedisLike, Seed: 202, SLO: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if par[0].Report.Baselines.Fast.Runtime != seq.Baselines.Fast.Runtime {
		t.Fatal("parallel run diverged from sequential")
	}
	if par[0].Report.Advice.Point.KeysInFast != seq.Advice.Point.KeysInFast {
		t.Fatal("parallel advice diverged")
	}
}

func TestProfileMatrixErrors(t *testing.T) {
	if _, err := ProfileMatrix(MatrixRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := ProfileMatrix(MatrixRequest{Workloads: []string{"bogus"}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ProfileMatrix(MatrixRequest{Workloads: []string{"ycsb_c", "ycsb_c"}}); err == nil {
		t.Error("duplicate workload accepted")
	}
}

func TestProfileMatrixRejectsBadOptionsUpFront(t *testing.T) {
	// Options are validated before any measurement: a bad value fails the
	// whole sweep immediately instead of burning a cell per engine.
	_, err := ProfileMatrix(MatrixRequest{
		Workloads: []string{"ycsb_c"},
		Engines:   []Engine{RedisLike},
		Options:   Options{Seed: 203, PriceFactor: 5}, // invalid p
	})
	if err == nil {
		t.Fatal("invalid PriceFactor accepted")
	}
}

func TestProfileMatrixCellErrorsDoNotAbort(t *testing.T) {
	// A cell whose engine does not exist fails alone: its error is the
	// cell's, and the healthy cell still carries its report.
	cells, err := ProfileMatrix(MatrixRequest{
		Workloads: []string{"ycsb_c"},
		Engines:   []Engine{Engine(99), RedisLike},
		Options:   Options{Seed: 203},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Err == nil || !strings.Contains(cells[0].Err.Error(), "unknown store engine") {
		t.Fatalf("cell error not surfaced: %+v", cells)
	}
	if cells[1].Err != nil || cells[1].Report == nil {
		t.Fatalf("healthy cell lost its report: %+v", cells[1])
	}
}
