// Package tune is the search driver over Mnemo's policy/parameter
// space: given one workload, one measurement config and an SLO, it
// looks for the cheapest FastMem sizing any parameterized tiering
// policy can reach within the SLO ("cheapest config within X%
// slowdown") and reports the full cost/slowdown Pareto frontier of
// everything it evaluated.
//
// The tuner is fast because evaluations share a content-addressed
// artifact cache (core.ArtifactCache): all N candidate configs reuse
// exactly one Fast+Slow baseline measurement, candidates that share a
// parameter vector reuse cached orderings and curves, candidates of one
// policy share whatever part of its analysis is the workload's alone
// (core.SharedAnalysis: one knapsack DP table per weight coarsening,
// not one per candidate), and re-runs that only move the SLO cut
// re-read cached curves without touching the testbed at all. Search combines successive halving with coordinate
// descent (DESIGN.md §17), fans evaluations out on the pool worker
// budget, and is bit-deterministic under a fixed seed for any worker
// count.
package tune

import (
	"context"
	"fmt"
	"sort"

	"mnemo/internal/core"
	"mnemo/internal/pool"
	"mnemo/internal/registry"
	"mnemo/internal/ycsb"
)

// DefaultBudget is the evaluation budget when Config.Budget is 0.
const DefaultBudget = 64

// MaxBudget bounds Config.Budget.
const MaxBudget = 100_000

// Candidate is one point of the search space: a registered policy plus
// a (possibly partial) parameter vector. A nil vector means the
// registry defaults.
type Candidate struct {
	Policy string             `json:"policy"`
	Params map[string]float64 `json:"params,omitempty"`
}

// String renders the candidate in its canonical, cache-key-safe form —
// the parameter-qualified policy name.
func (c Candidate) String() string {
	if len(c.Params) == 0 {
		return c.Policy
	}
	return c.Policy + "(" + registry.FormatParams(c.Params) + ")"
}

// Eval is one evaluated candidate: the advisor's cheapest SLO-keeping
// point on the candidate's estimate curve.
type Eval struct {
	Candidate Candidate `json:"candidate"`
	// PolicyName is the constructed policy instance's qualified name
	// (parameter defaults filled in).
	PolicyName string `json:"policy_name"`
	// CostFactor is the advised sizing's memory cost R(p) relative to
	// FastMem-only — the objective, lower is better.
	CostFactor float64 `json:"cost_factor"`
	// Slowdown is the advised sizing's estimated slowdown relative to
	// FastMem-only (≤ the SLO when Satisfiable).
	Slowdown float64 `json:"slowdown"`
	// FastBytes / KeysInFast describe the advised sizing.
	FastBytes  int64 `json:"fast_bytes"`
	KeysInFast int   `json:"keys_in_fast"`
	// CostSavings is 1 − CostFactor.
	CostSavings float64 `json:"cost_savings"`
	// Satisfiable mirrors the advisor's flag.
	Satisfiable bool `json:"satisfiable"`

	// curve retains the evaluated estimate curve for in-package
	// consumers (bit-identity tests, report rendering).
	curve *core.Curve
}

// Curve returns the candidate's evaluated estimate curve (shared,
// read-only).
func (e Eval) Curve() *core.Curve { return e.curve }

// score is the search objective: minimize cost, break ties toward
// smaller slowdown, then toward the lexicographically smaller name so
// every ranking is total and deterministic.
func (e Eval) better(o Eval) bool {
	if e.CostFactor != o.CostFactor {
		return e.CostFactor < o.CostFactor
	}
	if e.Slowdown != o.Slowdown {
		return e.Slowdown < o.Slowdown
	}
	return e.PolicyName < o.PolicyName
}

// Config parameterizes one tuning run.
type Config struct {
	// Core is the measurement configuration every candidate is
	// evaluated under (engine, machine, runs, seed). It is
	// part of the artifact cache key: candidates within one run always
	// share its single baseline measurement.
	Core core.Config
	// SLO is the permissible slowdown relative to FastMem-only
	// (e.g. 0.10); must be positive.
	SLO float64
	// Budget caps the number of candidate evaluations (0 = DefaultBudget).
	Budget int
	// Seed drives the search's random exploration. Two runs with equal
	// Config and workload are bit-identical, whatever Workers is.
	Seed int64
	// Workers bounds parallel evaluations (0 = GOMAXPROCS, via the pool
	// worker budget).
	Workers int
	// Policies restricts the search to these registered policies
	// (empty = every registered policy).
	Policies []string
}

// normalized validates and applies defaults.
func (c Config) normalized() (Config, error) {
	if c.SLO <= 0 {
		return c, fmt.Errorf("tune: SLO %v must be positive (the permissible slowdown, e.g. 0.10)", c.SLO)
	}
	if c.SLO > 10 {
		return c, fmt.Errorf("tune: SLO %v outside (0,10] (a 1000%% slowdown bound is not a constraint)", c.SLO)
	}
	if c.Budget < 0 {
		return c, fmt.Errorf("tune: Budget %d must be non-negative (0 means the default of %d)", c.Budget, DefaultBudget)
	}
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.Budget > MaxBudget {
		return c, fmt.Errorf("tune: Budget %d above the cap of %d", c.Budget, MaxBudget)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("tune: Workers %d must be non-negative (0 means GOMAXPROCS)", c.Workers)
	}
	if len(c.Policies) == 0 {
		c.Policies = registry.Names()
	}
	seen := make(map[string]bool, len(c.Policies))
	for _, name := range c.Policies {
		e, ok := registry.ByName(name)
		if !ok {
			return c, fmt.Errorf("tune: unknown policy %q (want one of %v)", name, registry.Names())
		}
		if seen[e.Name] {
			return c, fmt.Errorf("tune: policy %q listed twice", name)
		}
		seen[e.Name] = true
	}
	if c.Budget < len(c.Policies) {
		return c, fmt.Errorf("tune: Budget %d below the %d policies to seed (raise Budget or restrict Policies)",
			c.Budget, len(c.Policies))
	}
	return c, nil
}

// Result is a tuning run's full outcome.
type Result struct {
	// Winner is the best evaluation found: the cheapest advised sizing
	// across every candidate.
	Winner Eval
	// Defaults holds each searched policy's default-parameter
	// evaluation, best first — the baseline the tuned winner is
	// measured against.
	Defaults []Eval
	// Frontier is the Pareto frontier over (CostFactor, Slowdown) of
	// every evaluation, cheapest first: no point on it is beaten on
	// both axes by any other evaluation.
	Frontier []Eval
	// Evals lists every evaluation in deterministic search order.
	Evals []Eval
	// Stats snapshots the artifact cache after the run: Measurements is
	// the number of Fast+Slow baseline sweeps actually executed
	// (1 per distinct measurement config — the memoization headline).
	Stats core.CacheStats
	// SLO echoes the objective the run used.
	SLO float64
}

// Gain is the winner's cost improvement over the best default-parameter
// policy (0 when tuning found nothing better).
func (r *Result) Gain() float64 {
	if len(r.Defaults) == 0 {
		return 0
	}
	return r.Defaults[0].CostFactor - r.Winner.CostFactor
}

// Tuner runs tuning searches against one shared artifact cache.
// Successive Run calls — a second SLO, a widened policy set — reuse
// every artifact the cache already holds, so only genuinely new
// (workload, config, policy) combinations cost anything. The zero value
// is not usable; construct with New. Safe for concurrent use.
type Tuner struct {
	cache *core.ArtifactCache
}

// New returns a Tuner with a fresh artifact cache.
func New() *Tuner { return &Tuner{cache: core.NewArtifactCache()} }

// Cache exposes the tuner's artifact cache (e.g. to share it with
// sessions outside the tuner).
func (t *Tuner) Cache() *core.ArtifactCache { return t.cache }

// evaluate profiles one candidate through a cache-backed session and
// reads the advisor's answer off its curve.
func (t *Tuner) evaluate(ctx context.Context, cfg Config, w *ycsb.Workload, cand Candidate) (Eval, error) {
	pol, err := registry.NewParams(cand.Policy, cfg.Core.Server.Seed, cand.Params)
	if err != nil {
		return Eval{}, fmt.Errorf("tune: %w", err)
	}
	s, err := core.NewSharedSession(cfg.Core, w, t.cache)
	if err != nil {
		return Eval{}, err
	}
	curve, err := s.Estimate(ctx, pol)
	if err != nil {
		return Eval{}, err
	}
	adv, err := core.Advise(curve, cfg.SLO)
	if err != nil {
		return Eval{}, err
	}
	return evalOf(cand, pol.Name(), curve, adv), nil
}

// evalOf assembles an Eval from an advised curve point.
func evalOf(cand Candidate, policyName string, curve *core.Curve, adv core.Advice) Eval {
	var slowdown float64
	if fast := float64(curve.FastOnly().EstRuntime); fast > 0 {
		slowdown = float64(adv.Point.EstRuntime)/fast - 1
	}
	return Eval{
		Candidate:   cand,
		PolicyName:  policyName,
		CostFactor:  adv.Point.CostFactor,
		Slowdown:    slowdown,
		FastBytes:   adv.Point.FastBytes,
		KeysInFast:  adv.Point.KeysInFast,
		CostSavings: adv.CostSavings,
		Satisfiable: adv.Satisfiable,
		curve:       curve,
	}
}

// Sweep evaluates the candidates in order against the tuner's shared
// cache, fanned out on the pool worker budget. Results are returned in
// candidate order and are bit-identical for any worker count. This is
// the memoized bulk-evaluation primitive Run's search is built on,
// exported for benchmarks and equivalence tests.
func (t *Tuner) Sweep(ctx context.Context, cfg Config, w *ycsb.Workload, cands []Candidate) ([]Eval, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	evals := make([]Eval, len(cands))
	errs := make([]error, len(cands))
	workers := pool.Workers(cfg.Workers, len(cands))
	if err := pool.RunCtx(ctx, len(cands), workers, func(i int) {
		evals[i], errs[i] = t.evaluate(ctx, cfg, w, cands[i])
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tune: candidate %s: %w", cands[i], err)
		}
	}
	return evals, nil
}

// frontier extracts the Pareto-optimal evaluations over
// (CostFactor, Slowdown), cheapest first. Duplicate (cost, slowdown)
// points keep one representative.
func frontier(evals []Eval) []Eval {
	if len(evals) == 0 {
		return nil
	}
	sorted := make([]Eval, len(evals))
	copy(sorted, evals)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].better(sorted[j]) })
	var out []Eval
	bestSlowdown := 0.0
	for i, e := range sorted {
		if i > 0 && e.CostFactor == out[len(out)-1].CostFactor && e.Slowdown == out[len(out)-1].Slowdown {
			continue // duplicate point
		}
		if i == 0 || e.Slowdown < bestSlowdown {
			out = append(out, e)
			bestSlowdown = e.Slowdown
		}
	}
	return out
}
