package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// SpecVersion is the tuned-config spec format version this package
// reads and writes.
const SpecVersion = 1

// WorkloadRecipe regenerates the tuned workload: a built-in workload
// name (Table III preset or YCSB core workload) plus the generation
// seed and optional size overrides, exactly the inputs of
// registry.ResolveWorkload.
type WorkloadRecipe struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Keys/Requests override the preset's dimensions; 0 keeps them.
	Keys     int `json:"keys,omitempty"`
	Requests int `json:"requests,omitempty"`
}

// Expected is the tuned configuration's advised outcome, recorded so a
// replay can verify it reproduces bit-identically.
type Expected struct {
	CostFactor float64 `json:"cost_factor"`
	Slowdown   float64 `json:"slowdown"`
	FastBytes  int64   `json:"fast_bytes"`
	KeysInFast int     `json:"keys_in_fast"`
}

// Spec is a reproducible tuned configuration: everything needed to
// regenerate the workload, rebuild the measurement config, construct
// the winning policy instance and verify the advised outcome
// bit-identically (encoding/json round-trips float64 exactly). Written
// by cmd/mnemo-tune, replayed by `cmd/mnemo -config`.
type Spec struct {
	Version      int                `json:"version"`
	Workload     WorkloadRecipe     `json:"workload"`
	WorkloadHash string             `json:"workload_hash"`
	Engine       string             `json:"engine"`
	Seed         int64              `json:"seed"`
	Runs         int                `json:"runs"`
	PriceFactor  float64            `json:"price_factor"`
	NoiseSigma   float64            `json:"noise_sigma"`
	SizeAware    bool               `json:"size_aware,omitempty"`
	SLO          float64            `json:"slo"`
	Policy       string             `json:"policy"`
	Params       map[string]float64 `json:"params,omitempty"`
	Expected     Expected           `json:"expected"`
}

// NewSpec captures a tuning run's winner as a replayable spec. The
// recipe must regenerate the workload the run tuned (Replay verifies
// this via the content hash).
func (t *Tuner) NewSpec(res *Result, cfg Config, w *ycsb.Workload, recipe WorkloadRecipe) (*Spec, error) {
	whash, err := t.cache.WorkloadHash(w)
	if err != nil {
		return nil, err
	}
	cc := cfg.Core
	// Resolve the defaults the session layer would apply, so the spec
	// always records concrete values.
	if cc.Runs == 0 {
		cc.Runs = 1
	}
	if cc.PriceFactor == 0 {
		cc.PriceFactor = core.DefaultConfig(cc.Server.Engine, cc.Server.Seed).PriceFactor
	}
	s := &Spec{
		Version:      SpecVersion,
		Workload:     recipe,
		WorkloadHash: fmt.Sprintf("%016x", whash),
		Engine:       cc.Server.Engine.String(),
		Seed:         cc.Server.Seed,
		Runs:         cc.Runs,
		PriceFactor:  cc.PriceFactor,
		NoiseSigma:   cc.Server.NoiseSigma,
		SizeAware:    cc.SizeAwareEstimate,
		SLO:          cfg.SLO,
		Policy:       res.Winner.Candidate.Policy,
		Params:       res.Winner.Candidate.Params,
		Expected: Expected{
			CostFactor: res.Winner.CostFactor,
			Slowdown:   res.Winner.Slowdown,
			FastBytes:  res.Winner.FastBytes,
			KeysInFast: res.Winner.KeysInFast,
		},
	}
	return s, s.Validate()
}

// Validate checks a spec's internal consistency without running
// anything.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("tune: spec version %d, this build reads version %d", s.Version, SpecVersion)
	}
	if s.Workload.Name == "" {
		return fmt.Errorf("tune: spec has no workload name")
	}
	if _, err := strconv.ParseUint(s.WorkloadHash, 16, 64); err != nil {
		return fmt.Errorf("tune: spec workload_hash %q is not a 64-bit hex hash", s.WorkloadHash)
	}
	if _, ok := server.EngineByName(s.Engine); !ok {
		return fmt.Errorf("tune: spec names unknown engine %q", s.Engine)
	}
	if s.Runs < 1 {
		return fmt.Errorf("tune: spec runs %d must be ≥ 1", s.Runs)
	}
	if s.PriceFactor <= 0 || s.PriceFactor > 1 {
		return fmt.Errorf("tune: spec price_factor %v outside (0,1]", s.PriceFactor)
	}
	if s.SLO <= 0 {
		return fmt.Errorf("tune: spec slo %v must be positive", s.SLO)
	}
	if err := (server.Config{NoiseSigma: s.NoiseSigma}).Validate(); err != nil {
		return fmt.Errorf("tune: spec noise_sigma: %w", err)
	}
	e, ok := registry.ByName(s.Policy)
	if !ok {
		return fmt.Errorf("tune: spec names unknown policy %q (want one of %v)", s.Policy, registry.Names())
	}
	if len(s.Params) > 0 {
		if err := e.Params.Validate(s.Params); err != nil {
			return fmt.Errorf("tune: spec params: %w", err)
		}
	}
	return nil
}

// Encode writes the spec as indented JSON.
func (s *Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSpec reads and validates a spec.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("tune: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Config rebuilds the measurement configuration the spec ran under.
func (s *Spec) Config() (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	engine, _ := server.EngineByName(s.Engine)
	cc := core.DefaultConfig(engine, s.Seed)
	cc.Runs = s.Runs
	cc.PriceFactor = s.PriceFactor
	cc.Server.NoiseSigma = s.NoiseSigma
	cc.SizeAwareEstimate = s.SizeAware
	return Config{Core: cc, SLO: s.SLO, Policies: []string{s.Policy}}, nil
}

// Check compares an evaluation against the spec's expected block,
// bit-exactly.
func (s *Spec) Check(e Eval) error {
	got := Expected{CostFactor: e.CostFactor, Slowdown: e.Slowdown,
		FastBytes: e.FastBytes, KeysInFast: e.KeysInFast}
	if got != s.Expected {
		return fmt.Errorf("tune: replay diverged from spec: got %+v, spec expects %+v", got, s.Expected)
	}
	return nil
}

// resolveRecipe regenerates a recipe's workload.
func resolveRecipe(r WorkloadRecipe) (*ycsb.Workload, error) {
	return registry.ResolveWorkload(r.Name, r.Seed, r.Keys, r.Requests)
}

// Replay regenerates the spec's workload from its recipe, checks the
// content hash matches, re-evaluates the tuned candidate, and verifies
// the advised outcome is bit-identical to the spec's expected block.
// It returns the replayed evaluation (with its curve) on success.
func (t *Tuner) Replay(ctx context.Context, s *Spec) (Eval, error) {
	cfg, err := s.Config()
	if err != nil {
		return Eval{}, err
	}
	w, err := resolveRecipe(s.Workload)
	if err != nil {
		return Eval{}, fmt.Errorf("tune: spec workload: %w", err)
	}
	whash, err := t.cache.WorkloadHash(w)
	if err != nil {
		return Eval{}, err
	}
	if got := fmt.Sprintf("%016x", whash); got != s.WorkloadHash {
		return Eval{}, fmt.Errorf("tune: regenerated workload hash %s does not match spec workload_hash %s (recipe drifted?)", got, s.WorkloadHash)
	}
	e, err := t.evaluate(ctx, cfg, w, Candidate{Policy: s.Policy, Params: s.Params})
	if err != nil {
		return Eval{}, err
	}
	if err := s.Check(e); err != nil {
		return e, err
	}
	return e, nil
}
