package mnemo

import (
	"context"
	"fmt"
	"io"

	"mnemo/internal/tune"
)

// TuneResult is a tuning run's outcome: the winning evaluation, each
// policy's default-parameter baseline, the cost/slowdown Pareto
// frontier, and the artifact-cache statistics showing how much
// measurement work memoization saved.
type TuneResult = tune.Result

// TuneEval is one evaluated candidate configuration.
type TuneEval = tune.Eval

// TuneCandidate is one point of the tuning search space: a policy name
// plus a (possibly partial) parameter vector.
type TuneCandidate = tune.Candidate

// TuneSpec is a reproducible tuned configuration, written by
// cmd/mnemo-tune and replayed bit-identically by `cmd/mnemo -config`.
type TuneSpec = tune.Spec

// TuneWorkloadRecipe names a built-in workload plus the generation
// seed and optional size overrides — the regeneration recipe a TuneSpec
// carries.
type TuneWorkloadRecipe = tune.WorkloadRecipe

// TuneOptions configures the search itself; the measurement each
// candidate is evaluated under comes from the accompanying Options.
type TuneOptions struct {
	// Budget caps the number of candidate evaluations (0 = 64).
	Budget int
	// SearchSeed drives the random exploration phase. A fixed seed makes
	// the whole search bit-deterministic, for any Workers value.
	SearchSeed int64
	// Workers bounds parallel candidate evaluations (0 = GOMAXPROCS).
	Workers int
	// Policies restricts the search (empty = every registered policy).
	Policies []string
}

// tuneConfig assembles the internal search config from the public
// option pair, rejecting option combinations tuning cannot honor.
func tuneConfig(opts Options, topts TuneOptions) (tune.Config, error) {
	if opts.SLO <= 0 {
		return tune.Config{}, fmt.Errorf("mnemo: Tune requires Options.SLO > 0 (the objective is the cheapest sizing within the SLO)")
	}
	if opts.Policy != "" || len(opts.PolicyParams) > 0 {
		return tune.Config{}, fmt.Errorf("mnemo: Tune searches the policy space itself; leave Options.Policy/PolicyParams empty and restrict the search with TuneOptions.Policies")
	}
	if opts.EpochOps > 0 {
		return tune.Config{}, fmt.Errorf("mnemo: Tune measures candidates statically; EpochOps must be 0 (adaptive policies still compete via their static orderings)")
	}
	cfg, _, err := opts.coreConfig(nil)
	if err != nil {
		return tune.Config{}, err
	}
	return tune.Config{
		Core:     cfg,
		SLO:      opts.SLO,
		Budget:   topts.Budget,
		Seed:     topts.SearchSeed,
		Workers:  topts.Workers,
		Policies: topts.Policies,
	}, nil
}

// Tune searches the registered policy/parameter space for the cheapest
// FastMem sizing that keeps the workload within Options.SLO. All
// candidate evaluations share one content-addressed baseline
// measurement (the memoization that makes wide searches affordable),
// and the search is bit-deterministic under TuneOptions.SearchSeed.
func Tune(ctx context.Context, w *Workload, opts Options, topts TuneOptions) (*TuneResult, error) {
	cfg, err := tuneConfig(opts, topts)
	if err != nil {
		return nil, err
	}
	return tune.New().Run(ctx, cfg, w)
}

// TuneWithSpec is Tune over a built-in workload recipe, additionally
// returning the reproducible tuned-config spec: the recipe, the
// workload content hash, the measurement config, the winning parameter
// vector and the expected outcome, which `cmd/mnemo -config` replays
// bit-identically.
func TuneWithSpec(ctx context.Context, recipe TuneWorkloadRecipe, opts Options, topts TuneOptions) (*TuneResult, *TuneSpec, error) {
	cfg, err := tuneConfig(opts, topts)
	if err != nil {
		return nil, nil, err
	}
	w, err := WorkloadByNameSized(recipe.Name, recipe.Seed, recipe.Keys, recipe.Requests)
	if err != nil {
		return nil, nil, err
	}
	tuner := tune.New()
	res, err := tuner.Run(ctx, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	spec, err := tuner.NewSpec(res, cfg, w, recipe)
	if err != nil {
		return nil, nil, err
	}
	return res, spec, nil
}

// ReplayTuneSpec regenerates a spec's workload, re-evaluates the tuned
// configuration and verifies the advised outcome matches the spec's
// expected block bit-identically, returning the replayed evaluation.
func ReplayTuneSpec(ctx context.Context, spec *TuneSpec) (TuneEval, error) {
	return tune.New().Replay(ctx, spec)
}

// DecodeTuneSpec reads and validates a tuned-config spec (JSON, as
// written by cmd/mnemo-tune).
func DecodeTuneSpec(r io.Reader) (*TuneSpec, error) {
	return tune.DecodeSpec(r)
}
