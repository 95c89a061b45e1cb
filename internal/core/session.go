package core

import (
	"context"
	"fmt"
	"sync"

	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Session is the staged profiling pipeline: Measure → Analyze →
// Estimate → Place. Each stage's artifact (the measured Baselines, a
// policy's Ordering, its Curve) is computed once and kept in the
// session's ArtifactCache, so later stages — and later policies — reuse
// earlier work instead of re-running it. In particular Compare profiles
// any number of tiering policies against a single Fast+Slow baseline
// measurement, and Advise re-reads a cached curve without touching the
// testbed at all.
//
// A session is bound to one workload and one engine configuration; the
// zero value is not usable, construct with NewSession or
// NewSharedSession. Methods are safe for concurrent use.
type Session struct {
	cfg Config // normalized
	w   *ycsb.Workload
	// cache holds every artifact the session computes or reads: the
	// cache handed to NewSharedSession, or one private to the session.
	cache *ArtifactCache

	mu       sync.Mutex // serializes the stages
	measures int        // completed Measure executions (see MeasureCount)
}

// NewSession validates the config and binds the staged pipeline to the
// workload, with a cache private to the session. No measurement happens
// until Measure (or a stage that needs it) is called.
func NewSession(cfg Config, w *ycsb.Workload) (*Session, error) {
	return NewSharedSession(cfg, w, nil)
}

// NewSharedSession is NewSession backed by a cross-session artifact
// cache: the session's Measure/Analyze/Estimate artifacts are keyed by
// content (workload hash, measurement config, policy name) in the cache,
// so any number of sessions over the same workload — one per candidate
// config, say — execute exactly one Fast+Slow baseline measurement
// between them. A nil cache gives the session a private one
// (newSessionCache), which never hashes the workload.
func NewSharedSession(cfg Config, w *ycsb.Workload, cache *ArtifactCache) (*Session, error) {
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("core: nil workload")
	}
	if cache == nil {
		cache = newSessionCache(w)
	}
	return &Session{cfg: ncfg, w: w, cache: cache}, nil
}

// sink returns the session's observability sink (nil when the config
// carries none; every use below is nil-safe).
func (s *Session) sink() *obs.Sink { return s.cfg.Server.Obs }

// cacheHit records an artifact served from the session's cache instead
// of re-running its stage.
func (s *Session) cacheHit(artifact, detail string) {
	sink := s.sink()
	if !sink.Enabled() {
		return
	}
	sink.Counter(obs.Name("mnemo_session_cache_hits_total", "artifact", artifact)).Inc()
	sink.Eventf(obs.EventCacheHit, "session", 0, "%s served from cache (%s)", artifact, detail)
}

// Workload returns the session's workload descriptor.
func (s *Session) Workload() *ycsb.Workload { return s.w }

// Config returns the session's normalized profiling config.
func (s *Session) Config() Config { return s.cfg }

// Measure is stage 1 (Sensitivity Engine): execute the workload in the
// all-FastMem and all-SlowMem extremes. The measurement runs once per
// session; every later call — and every policy profiled through this
// session — returns the cached artifact.
func (s *Session) Measure(ctx context.Context) (Baselines, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measureLocked(ctx)
}

func (s *Session) measureLocked(ctx context.Context) (Baselines, error) {
	whash, err := s.cache.WorkloadHash(s.w)
	if err != nil {
		return Baselines{}, err
	}
	b, computed, err := s.cache.sharedBaselines(whash, s.cfg, func() (Baselines, error) {
		return s.runMeasurement(ctx)
	})
	if err != nil {
		return Baselines{}, err
	}
	if computed {
		s.measures++
	} else {
		s.cacheHit("baselines", "Fast+Slow baselines")
	}
	return b, nil
}

// runMeasurement executes the Sensitivity Engine's Fast+Slow baseline
// sweep (MeasureBaselines) — the expensive stage everything above caches.
func (s *Session) runMeasurement(ctx context.Context) (Baselines, error) {
	span := s.sink().StartSpan("measure")
	b, err := MeasureBaselines(ctx, s.cfg, s.w)
	if err != nil {
		return Baselines{}, err
	}
	span.End(b.Fast.Runtime + b.Slow.Runtime)
	return b, nil
}

// MeasureCount reports how many baseline measurements this session has
// actually executed — 1 after any number of policies have been profiled,
// 0 if nothing forced a measurement yet.
func (s *Session) MeasureCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measures
}

// Analyze is stage 2 (Pattern Engine): run the policy's orderer over the
// workload. The ordering is cached under the policy's name, so repeated
// Analyze/Estimate calls for the same policy re-use it.
func (s *Session) Analyze(ctx context.Context, p TieringPolicy) (Ordering, error) {
	if p == nil {
		return Ordering{}, fmt.Errorf("core: nil tiering policy")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.analyzeLocked(ctx, p)
}

func (s *Session) analyzeLocked(ctx context.Context, p TieringPolicy) (Ordering, error) {
	whash, err := s.cache.WorkloadHash(s.w)
	if err != nil {
		return Ordering{}, err
	}
	ord, computed, err := s.cache.sharedOrdering(whash, p.Name(), s.cfg.Server.Seed, func() (Ordering, error) {
		return s.runAnalyze(ctx, p)
	})
	if err != nil {
		return Ordering{}, err
	}
	if !computed {
		s.cacheHit("ordering", "policy "+p.Name())
	}
	return ord, nil
}

// runAnalyze executes the policy's Pattern Engine and validates that the
// resulting ordering covers the dataset (checkCovers).
func (s *Session) runAnalyze(ctx context.Context, p TieringPolicy) (Ordering, error) {
	span := s.sink().StartSpan("analyze")
	ord, err := p.Order(ctx, s.w)
	if err != nil {
		return Ordering{}, fmt.Errorf("core: policy %q: %w", p.Name(), err)
	}
	if err := checkCovers(ord, s.w.Dataset.Records); err != nil {
		return Ordering{}, fmt.Errorf("core: policy %q: %w", p.Name(), err)
	}
	span.End(0)
	return ord, nil
}

// checkCovers enforces the TieringPolicy contract on an ordering: one
// entry per dataset record, each naming an in-range record by Index with
// that record's Key, no record twice.
func checkCovers(ord Ordering, recs []ycsb.Record) error {
	if len(ord.Keys) != len(recs) {
		return fmt.Errorf("ordered %d of %d keys", len(ord.Keys), len(recs))
	}
	seen := make([]bool, len(recs))
	for i, k := range ord.Keys {
		switch {
		case k.Index < 0 || k.Index >= len(recs):
			return fmt.Errorf("entry %d (key %q) has index %d outside [0,%d)", i, k.Key, k.Index, len(recs))
		case k.Key != recs[k.Index].Key:
			return fmt.Errorf("entry %d has key %q, dataset record %d is %q", i, k.Key, k.Index, recs[k.Index].Key)
		case seen[k.Index]:
			return fmt.Errorf("entry %d repeats dataset record %d (key %q)", i, k.Index, k.Key)
		}
		seen[k.Index] = true
	}
	return nil
}

// Estimate is stage 3 (Estimate Engine): combine the cached baselines
// with the policy's ordering into the cost/performance curve, measuring
// and analyzing first if those artifacts are missing. The curve is
// cached under the policy's name.
func (s *Session) Estimate(ctx context.Context, p TieringPolicy) (*Curve, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil tiering policy")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, _, _, err := s.estimateLocked(ctx, p)
	return c, err
}

// estimateLocked returns the policy's curve together with the baselines
// and ordering it was built from, which Run reports alongside it.
func (s *Session) estimateLocked(ctx context.Context, p TieringPolicy) (*Curve, Baselines, Ordering, error) {
	b, err := s.measureLocked(ctx)
	if err != nil {
		return nil, Baselines{}, Ordering{}, err
	}
	ord, err := s.analyzeLocked(ctx, p)
	if err != nil {
		return nil, Baselines{}, Ordering{}, err
	}
	whash, err := s.cache.WorkloadHash(s.w)
	if err != nil {
		return nil, Baselines{}, Ordering{}, err
	}
	c, computed, err := s.cache.sharedCurve(whash, s.cfg, p.Name(), func() (*Curve, error) {
		// The estimate span covers only the curve construction itself;
		// the measure and analyze stages record their own spans.
		span := s.sink().StartSpan("estimate")
		ee, err := NewEstimateEngine(s.cfg.PriceFactor)
		if err != nil {
			return nil, err
		}
		ee.SetSizeAware(s.cfg.SizeAwareEstimate)
		c, err := ee.Curve(s.w, b, ord)
		if err != nil {
			return nil, err
		}
		span.End(0)
		s.sink().Eventf(obs.EventCurveBuilt, "estimate", 0, "policy %s: %d curve points", p.Name(), len(c.Points))
		return c, nil
	})
	if err != nil {
		return nil, Baselines{}, Ordering{}, err
	}
	if !computed {
		s.cacheHit("curve", "policy "+p.Name())
	}
	return c, b, ord, nil
}

// Advise is stage 4 (Placement Engine, advisory half): pick the cheapest
// SLO-satisfying point off the policy's cached curve. Re-running with a
// different SLO reuses every cached artifact — no new measurement.
func (s *Session) Advise(ctx context.Context, p TieringPolicy, maxSlowdown float64) (Advice, error) {
	c, err := s.Estimate(ctx, p)
	if err != nil {
		return Advice{}, err
	}
	return Advise(c, maxSlowdown)
}

// Place is stage 4 (Placement Engine, materializing half): turn a chosen
// curve point into the static Fast/Slow placement for the policy's
// ordering.
func (s *Session) Place(ctx context.Context, p TieringPolicy, point CurvePoint) (server.Placement, error) {
	ord, err := s.Analyze(ctx, p)
	if err != nil {
		return server.Placement{}, err
	}
	span := s.sink().StartSpan("place")
	pl, err := PlacementFor(ord, point)
	if err != nil {
		return server.Placement{}, err
	}
	span.End(0)
	s.sink().Eventf(obs.EventPlacement, "place", 0,
		"policy %s: placement at %d fast keys", p.Name(), point.KeysInFast)
	return pl, nil
}

// Run assembles the full report for one policy: cached baselines, the
// policy's ordering and curve, and — when maxSlowdown > 0 — the advised
// sizing. Equivalent to the one-shot Profile, but reusing the session's
// artifacts.
func (s *Session) Run(ctx context.Context, p TieringPolicy, maxSlowdown float64) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil tiering policy")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Estimate drives the earlier stages once each and hands their
	// artifacts back, so the report reads no stage twice.
	curve, b, ord, err := s.estimateLocked(ctx, p)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Workload:  s.w.Spec.Name,
		Engine:    s.cfg.Server.Engine.String(),
		Policy:    p.Name(),
		Baselines: b,
		Ordering:  ord,
		Curve:     curve,
	}
	if maxSlowdown > 0 {
		advice, err := Advise(curve, maxSlowdown)
		if err != nil {
			return nil, err
		}
		rep.Advice = &advice
	}
	return rep, nil
}

// Compare profiles every policy against the session's single baseline
// measurement and returns one report per policy, input order preserved.
// Policies must have distinct names — artifacts are keyed by policy
// name, and a silent collision would hand one policy another's curve.
func (s *Session) Compare(ctx context.Context, maxSlowdown float64, policies ...TieringPolicy) ([]*Report, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("core: Compare needs at least one policy")
	}
	seen := make(map[string]bool, len(policies))
	for _, p := range policies {
		if p == nil {
			return nil, fmt.Errorf("core: nil tiering policy")
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("core: policy %q listed twice", p.Name())
		}
		seen[p.Name()] = true
	}
	out := make([]*Report, len(policies))
	for i, p := range policies {
		rep, err := s.Run(ctx, p, maxSlowdown)
		if err != nil {
			return nil, err
		}
		out[i] = rep
	}
	return out, nil
}
