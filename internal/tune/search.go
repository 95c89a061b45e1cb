package tune

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/ycsb"
)

// Search shape. The budget splits three ways: one default-parameter
// evaluation per policy (the comparison baseline), a seeded random
// exploration pass over each tunable policy's space, and the remainder
// spent on successive-halving rounds of coordinate descent around the
// current leaders with a step size that halves every round.
const (
	// searchSurvivors is the number of leaders refined in the first
	// halving round; it halves each round.
	searchSurvivors = 4
	// searchMaxRounds bounds the halving rounds.
	searchMaxRounds = 12
	// searchStep is the first round's coordinate step as a fraction of
	// each parameter's range (its span on the linear scale, its log-span
	// on the log scale).
	searchStep = 0.25
)

// Run searches the policy/parameter space for the cheapest advised
// sizing within cfg.SLO. The search is deterministic for a given
// (Config, workload) — including under any Workers value — because
// random draws happen in a fixed serial order and candidate evaluation
// is pure.
func (t *Tuner) Run(ctx context.Context, cfg Config, w *ycsb.Workload) (*Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	// Surface config errors before spending the budget.
	if _, err := core.NewSharedSession(cfg.Core, w, t.cache); err != nil {
		return nil, err
	}

	st := &search{t: t, cfg: cfg, w: w, seen: map[string]bool{}, remaining: cfg.Budget}

	// Round 0a: every policy at its registry defaults.
	defaults := make([]Candidate, len(cfg.Policies))
	for i, name := range cfg.Policies {
		defaults[i] = Candidate{Policy: name}
	}
	defEvals, err := st.eval(ctx, defaults)
	if err != nil {
		return nil, err
	}

	// Round 0b: seeded random exploration of each tunable space,
	// spending about half of what is left so the halving rounds keep
	// the other half.
	tunable := st.tunablePolicies()
	if len(tunable) > 0 && st.remaining > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		perPolicy := (st.remaining / 2) / len(tunable)
		var explore []Candidate
		for _, e := range tunable {
			for k := 0; k < perPolicy; k++ {
				vec := make(map[string]float64, len(e.Params))
				for _, p := range e.Params {
					vec[p.Name] = sampleParam(p, rng)
				}
				explore = append(explore, Candidate{Policy: e.Name, Params: vec})
			}
		}
		if _, err := st.eval(ctx, explore); err != nil {
			return nil, err
		}
	}

	// Round 0c: cut-targeted knapsack anchors. The integrality gap the
	// anchor rung exploits lives just below the incumbents' advised
	// cuts — an exact packing at slightly less capacity can still keep
	// the SLO where the density prefix cannot. Random exploration almost
	// never lands there, so target it explicitly.
	if st.policySearched("knapsack") && st.remaining > 0 {
		if total := datasetBytes(w); total > 0 {
			var batch []Candidate
			for _, leader := range rankEvals(defEvals) {
				if leader.FastBytes <= 0 {
					continue
				}
				cut := float64(leader.FastBytes) / float64(total)
				for _, mult := range [...]float64{1, 0.97, 0.93, 0.88} {
					anchor := math.Min(1, cut*mult)
					batch = append(batch, Candidate{Policy: "knapsack",
						Params: map[string]float64{"anchor": anchor}})
				}
			}
			if _, err := st.eval(ctx, batch); err != nil {
				return nil, err
			}
		}
	}

	// Halving rounds: refine a shrinking set of leaders with a halving
	// coordinate step.
	for round := 0; round < searchMaxRounds && st.remaining > 0 && len(tunable) > 0; round++ {
		temp := math.Pow(0.5, float64(round))
		survivors := st.leaders(max(1, searchSurvivors>>round))
		var batch []Candidate
		for _, leader := range survivors {
			e, ok := registry.ByName(leader.Candidate.Policy)
			if !ok || len(e.Params) == 0 {
				continue
			}
			base := e.Params.Complete(leader.Candidate.Params)
			for _, vec := range neighborVectors(e.Params, base, temp) {
				batch = append(batch, Candidate{Policy: e.Name, Params: vec})
			}
		}
		fresh, err := st.eval(ctx, batch)
		if err != nil {
			return nil, err
		}
		if len(fresh) == 0 && temp < 1e-3 {
			break // converged: nothing new at a negligible step
		}
	}

	res := &Result{
		Defaults: rankEvals(defEvals),
		Frontier: frontier(st.evals),
		Evals:    st.evals,
		Stats:    t.cache.Stats(),
		SLO:      cfg.SLO,
	}
	res.Winner = res.Frontier[0]
	for _, e := range st.evals {
		if e.better(res.Winner) {
			res.Winner = e
		}
	}
	return res, nil
}

// search is one Run's mutable state.
type search struct {
	t         *Tuner
	cfg       Config
	w         *ycsb.Workload
	seen      map[string]bool // canonical candidate name → already evaluated
	evals     []Eval
	remaining int
}

// eval evaluates the still-unseen candidates in the batch (in order,
// truncated to the remaining budget) and returns the fresh evaluations.
func (st *search) eval(ctx context.Context, cands []Candidate) ([]Eval, error) {
	var fresh []Candidate
	for _, c := range cands {
		if st.remaining-len(fresh) <= 0 {
			break
		}
		name, err := st.canonicalName(c)
		if err != nil {
			return nil, err
		}
		if st.seen[name] {
			continue
		}
		st.seen[name] = true
		fresh = append(fresh, c)
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	evals, err := st.t.Sweep(ctx, st.cfg, st.w, fresh)
	if err != nil {
		return nil, err
	}
	st.remaining -= len(evals)
	st.evals = append(st.evals, evals...)
	return evals, nil
}

// canonicalName resolves a candidate to its qualified policy-instance
// name — the dedup key, so a partial vector equals its completed form
// and a default-valued vector equals the plain policy.
func (st *search) canonicalName(c Candidate) (string, error) {
	pol, err := registry.NewParams(c.Policy, st.cfg.Core.Server.Seed, c.Params)
	if err != nil {
		return "", err
	}
	return pol.Name(), nil
}

// policySearched reports whether the run's policy set includes name.
func (st *search) policySearched(name string) bool {
	for _, n := range st.cfg.Policies {
		if n == name {
			return true
		}
	}
	return false
}

// datasetBytes sums the workload's record sizes.
func datasetBytes(w *ycsb.Workload) int64 {
	var total int64
	for _, rec := range w.Dataset.Records {
		total += int64(rec.Size)
	}
	return total
}

// tunablePolicies filters the searched policies down to those with a
// parameter space.
func (st *search) tunablePolicies() []registry.Entry {
	var out []registry.Entry
	for _, name := range st.cfg.Policies {
		if e, ok := registry.ByName(name); ok && len(e.Params) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// leaders returns the best n tunable evaluations so far.
func (st *search) leaders(n int) []Eval {
	var tunable []Eval
	for _, e := range st.evals {
		if entry, ok := registry.ByName(e.Candidate.Policy); ok && len(entry.Params) > 0 {
			tunable = append(tunable, e)
		}
	}
	tunable = rankEvals(tunable)
	if len(tunable) > n {
		tunable = tunable[:n]
	}
	return tunable
}

// rankEvals sorts a copy best-first under the search objective.
func rankEvals(evals []Eval) []Eval {
	out := make([]Eval, len(evals))
	copy(out, evals)
	sort.SliceStable(out, func(i, j int) bool { return out[i].better(out[j]) })
	return out
}

// sampleParam draws one in-bounds value, uniform on the parameter's
// scale (linear, or log when flagged and the range is positive).
func sampleParam(p registry.Param, rng *rand.Rand) float64 {
	var v float64
	if p.Log && p.Min > 0 {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		v = math.Exp(lo + rng.Float64()*(hi-lo))
	} else {
		v = p.Min + rng.Float64()*(p.Max-p.Min)
	}
	return p.Clamp(v)
}

// neighborVectors generates the coordinate-descent moves around base:
// for each parameter, one step down and one step up at the given
// temperature (step fraction searchStep·temp of the range on the
// parameter's scale), clamped to bounds; moves that clamp back onto the
// base value are dropped.
func neighborVectors(space registry.ParamSpace, base map[string]float64, temp float64) []map[string]float64 {
	var out []map[string]float64
	for _, p := range space {
		cur := base[p.Name]
		var lo, hi float64
		if p.Log && p.Min > 0 && cur > 0 {
			f := math.Pow(p.Max/p.Min, searchStep*temp)
			lo, hi = cur/f, cur*f
		} else {
			d := (p.Max - p.Min) * searchStep * temp
			lo, hi = cur-d, cur+d
		}
		for _, v := range [2]float64{p.Clamp(lo), p.Clamp(hi)} {
			if v == cur {
				continue
			}
			vec := make(map[string]float64, len(base))
			for k, bv := range base {
				vec[k] = bv
			}
			vec[p.Name] = v
			out = append(out, vec)
		}
	}
	return out
}
