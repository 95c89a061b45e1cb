// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction substrate. Each experiment returns a
// structured result (so tests and benchmarks can assert on it) with a
// Render method that prints the table or an ASCII plot the way
// cmd/mnemo-bench presents it.
//
// Experiments accept a Scale: Full matches the paper (10 000 keys,
// 100 000 requests per workload); Quick is a 10× reduction for unit tests
// and benchmarks.
package experiments

import (
	"fmt"

	"mnemo/internal/core"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Scale sets the experiment size.
type Scale struct {
	Name string
	// Keys and Requests override the Table III workload dimensions.
	Keys, Requests int
	// Runs is the repetitions averaged per measurement.
	Runs int
	// CurveSamples is how many interior tierings are measured per curve.
	CurveSamples int
	// Obs, when non-nil, receives every measurement's observability
	// stream (metrics and the run journal); nil keeps the experiment
	// uninstrumented.
	Obs *obs.Sink
	// Shards replays every measurement across a consistent-hash cluster
	// of N deployments (0 and 1 = a single deployment; DESIGN.md §13).
	Shards int
	// EpochOps sets the adaptive replay epoch length for experiments
	// that measure epoch-based migration (AdaptiveCompare); 0 picks the
	// experiment default. Profiling experiments ignore it: estimate
	// curves are static by construction (DESIGN.md §15).
	EpochOps int
	// MigrationCostPerByte is the simulated charge, in ns per payload
	// byte, for mid-run tier migrations; 0 picks the experiment default
	// for adaptive experiments.
	MigrationCostPerByte float64
	// MigrationBudget caps migrated payload bytes per epoch boundary
	// (0 = unlimited).
	MigrationBudget int64
}

// Full is the paper's scale.
var Full = Scale{Name: "full", Keys: 10_000, Requests: 100_000, Runs: 1, CurveSamples: 6}

// Quick is a 10×-reduced scale for tests and benchmarks.
var Quick = Scale{Name: "quick", Keys: 1_000, Requests: 10_000, Runs: 1, CurveSamples: 4}

// Validate checks the scale's own dimensions, then every run knob
// through the profiling config it builds (core.Config.Validate), so a
// rejected knob is named exactly as in server.Config.
func (s Scale) Validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{{"Keys", s.Keys}, {"Requests", s.Requests}, {"Runs", s.Runs}, {"CurveSamples", s.CurveSamples}} {
		if d.v <= 0 {
			return fmt.Errorf("experiments: scale %s %d must be positive", d.name, d.v)
		}
	}
	cfg := s.coreConfig(server.RedisLike, 0)
	// Only AdaptiveCompare reads EpochOps, so coreConfig leaves it unset.
	cfg.Server.EpochOps = s.EpochOps
	return cfg.Validate()
}

// workload generates a Table III workload at this scale.
func (s Scale) workload(spec ycsb.Spec) (*ycsb.Workload, error) {
	spec.Keys = s.Keys
	spec.Requests = s.Requests
	return ycsb.Generate(spec)
}

// coreConfig builds the profiling config for an engine at this scale.
// The LLC is scaled with the key space so a reduced-scale run keeps the
// paper's cache:dataset ratio (12 MB against 10 000 keys ≈ 1 GB);
// otherwise a small dataset would be mostly cache-resident and every
// SlowMem sensitivity would vanish.
func (s Scale) coreConfig(e server.Engine, seed int64) core.Config {
	cfg := core.DefaultConfig(e, seed)
	cfg.Runs = s.Runs
	cfg.Server.Machine.LLCBytes = int64(12<<20) * int64(s.Keys) / int64(Full.Keys)
	cfg.Server.Obs = s.Obs
	cfg.Server.Shards = s.Shards
	// Migration knobs are inert until a run also carries an Adaptive
	// policy and EpochOps ≥ 1 (only AdaptiveCompare sets those).
	cfg.Server.MigrationCostPerByte = s.MigrationCostPerByte
	cfg.Server.MigrationBudget = s.MigrationBudget
	return cfg
}

// SLO is the permissible application slowdown used by Fig 9 (10%, the
// value "commonly used in other research on optimizing performance and
// resource efficiency").
const SLO = 0.10

// engineLabel maps engine names to the store they stand in for, for
// report headers.
func engineLabel(e server.Engine) string {
	switch e {
	case server.RedisLike:
		return "Redis(-like)"
	case server.MemcachedLike:
		return "Memcached(-like)"
	case server.DynamoLike:
		return "DynamoDB(-like)"
	default:
		return e.String()
	}
}
