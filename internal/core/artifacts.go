package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// ArtifactCache is the content-addressed, cross-session artifact store
// (DESIGN.md §17): Session artifacts keyed by what they depend on
// instead of by the Session that produced them. Baselines are keyed by
// (workload hash, measurement config), orderings by (workload hash,
// policy name, seed), curves by (ordering key, measurement key, price
// factor, size-awareness) — so N sessions that differ only in their
// tiering policy's parameter vector share exactly one Fast+Slow
// measurement, and sessions that differ in nothing but the placement cut
// (the SLO) re-read one cached curve.
//
// Every entry is computed at most once per key (singleflight): the first
// session to need an artifact computes it while concurrent sessions
// block on the same entry; a failed computation is evicted so a later
// call can retry rather than caching the error forever. Construct with
// NewArtifactCache and hand the same cache to each session via
// NewSharedSession. Cached artifacts are shared structures — treat them
// as immutable: an artifact is published only after its computation has
// returned, is read concurrently by every session on the cache, and is
// never written again. Nothing is evicted on success; artifacts live and
// die with the cache that holds them.
type ArtifactCache struct {
	mu      sync.Mutex
	whashes map[*ycsb.Workload]uint64

	baselines map[uint64]*flight[Baselines]
	orderings map[uint64]*flight[Ordering]
	curves    map[uint64]*flight[*Curve]
	analyses  map[uint64]*flight[any]

	measurements     atomic.Int64
	baselineHits     atomic.Int64
	orderingHits     atomic.Int64
	curveHits        atomic.Int64
	analysisComputes atomic.Int64
	analysisHits     atomic.Int64
}

// NewArtifactCache returns an empty cache, ready to share across
// sessions and goroutines.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{
		whashes:   map[*ycsb.Workload]uint64{},
		baselines: map[uint64]*flight[Baselines]{},
		orderings: map[uint64]*flight[Ordering]{},
		curves:    map[uint64]*flight[*Curve]{},
		analyses:  map[uint64]*flight[any]{},
	}
}

// CacheStats is an ArtifactCache usage snapshot.
type CacheStats struct {
	// Measurements is how many Fast+Slow baseline measurements were
	// actually executed through the cache — the work everything else
	// amortizes.
	Measurements int64
	// BaselineHits / OrderingHits / CurveHits count artifacts served
	// from the cache instead of recomputed.
	BaselineHits int64
	OrderingHits int64
	CurveHits    int64
	// AnalysisComputes / AnalysisHits count the workload-only analysis
	// artifacts (SharedAnalysis) computed through the cache and served
	// from it: in a tuning search, the DP tables solved against the
	// knapsack candidates that read them.
	AnalysisComputes int64
	AnalysisHits     int64
}

// Stats snapshots the cache's counters.
func (c *ArtifactCache) Stats() CacheStats {
	return CacheStats{
		Measurements: c.measurements.Load(),
		BaselineHits: c.baselineHits.Load(),
		OrderingHits: c.orderingHits.Load(),
		CurveHits:    c.curveHits.Load(),

		AnalysisComputes: c.analysisComputes.Load(),
		AnalysisHits:     c.analysisHits.Load(),
	}
}

// flight is one singleflight cache entry: done closes when val/err are
// final.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// ComputePanicError is what callers waiting on an artifact receive when
// the computation they were waiting for panicked. The panic itself
// continues on the goroutine that ran the computation.
type ComputePanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *ComputePanicError) Error() string {
	return fmt.Sprintf("core: artifact computation panicked: %v", e.Value)
}

// flightDo returns the cached value for key, computing it via compute if
// absent. Concurrent callers for the same key block on the first
// caller's computation; failures are evicted. A compute that panics is a
// failure too: waiters get a *ComputePanicError, the entry is evicted and
// the panic is re-raised on the computing goroutine. The returned bool
// reports whether this caller ran compute.
func flightDo[T any](mu *sync.Mutex, m map[uint64]*flight[T], hits *atomic.Int64, key uint64, compute func() (T, error)) (T, bool, error) {
	mu.Lock()
	if f, ok := m[key]; ok {
		mu.Unlock()
		<-f.done
		if f.err != nil {
			var zero T
			return zero, false, f.err
		}
		hits.Add(1)
		return f.val, false, nil
	}
	f := &flight[T]{done: make(chan struct{})}
	m[key] = f
	mu.Unlock()

	returned := false
	defer func() {
		var v any
		if !returned {
			v = recover()
			f.err = &ComputePanicError{Value: v}
		}
		if f.err != nil {
			mu.Lock()
			delete(m, key)
			mu.Unlock()
		}
		close(f.done)
		if !returned {
			panic(v)
		}
	}()
	f.val, f.err = compute()
	returned = true
	var zero T
	if f.err != nil {
		return zero, true, f.err
	}
	return f.val, true, nil
}

// WorkloadHash fingerprints a workload's full content — spec name,
// dataset (key names and sizes, in order) and request trace (key index
// and op kind, in order) — with FNV-64a. Two workloads with equal hashes
// produce bit-identical measurements under equal configs. The hash walks
// the whole trace, so the cache memoizes it per *Workload pointer; a
// streamed trace is read once end to end.
func (c *ArtifactCache) WorkloadHash(w *ycsb.Workload) (uint64, error) {
	c.mu.Lock()
	if h, ok := c.whashes[w]; ok {
		c.mu.Unlock()
		return h, nil
	}
	c.mu.Unlock()
	h, err := workloadHash(w)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.whashes[w] = h
	c.mu.Unlock()
	return h, nil
}

func workloadHash(w *ycsb.Workload) (uint64, error) {
	x := newArtifactHasher()
	x.str(w.Spec.Name)
	x.u64(uint64(len(w.Dataset.Records)))
	for _, rec := range w.Dataset.Records {
		x.str(rec.Key)
		x.u64(uint64(rec.Size))
	}
	x.u64(uint64(w.RequestCount()))
	if err := w.ForEachOp(func(key int, kind kvstore.OpKind) {
		x.u64(uint64(key)<<8 | uint64(kind)&0xff)
	}); err != nil {
		return 0, err
	}
	return x.h, nil
}

// measurementKey fingerprints everything that can change a baseline
// measurement's bits: the workload plus every config field the replay
// reads. The observability sink is excluded (results are bit-identical
// with and without one); PriceFactor and SizeAwareEstimate are excluded
// here — they shape the estimate curve, not the measurement — and enter
// curveKey instead.
func measurementKey(whash uint64, cfg Config) uint64 {
	x := newArtifactHasher()
	x.u64(whash)
	x.u64(uint64(cfg.Runs))

	s := cfg.Server
	x.u64(uint64(s.Engine))
	for _, np := range []struct {
		name string
		lat  float64
		bw   float64
	}{
		{s.Machine.FastParams.Name, s.Machine.FastParams.LatencyNs, s.Machine.FastParams.BandwidthGBps},
		{s.Machine.SlowParams.Name, s.Machine.SlowParams.LatencyNs, s.Machine.SlowParams.BandwidthGBps},
		{s.Machine.LLCParams.Name, s.Machine.LLCParams.LatencyNs, s.Machine.LLCParams.BandwidthGBps},
	} {
		x.str(np.name)
		x.f64(np.lat)
		x.f64(np.bw)
	}
	x.u64(uint64(s.Machine.FastCapacity))
	x.u64(uint64(s.Machine.SlowCapacity))
	x.u64(uint64(s.Machine.LLCBytes))
	x.f64(s.NoiseSigma)
	x.u64(uint64(s.Seed))
	x.bool(s.DisableBatchReplay)
	x.u64(uint64(s.Shards))
	x.u64(uint64(s.EpochOps))
	x.f64(s.MigrationCostPerByte)
	x.u64(uint64(s.MigrationBudget))
	if s.Adaptive != nil {
		// Adaptive sources are policies, so the qualified policy name
		// identifies one; an anonymous source conservatively gets a
		// never-shared marker (its own map identity is unknowable here).
		if named, ok := s.Adaptive.(interface{ Name() string }); ok {
			x.str("adaptive:" + named.Name())
		} else {
			x.str("adaptive:unnamed")
		}
	}
	return x.h
}

// orderingKey fingerprints a pattern-analysis artifact: the workload,
// the policy instance's (parameter-qualified) name, and the seed the
// policy was constructed with. Reuse across sessions assumes policies
// resolve deterministically from (name, seed) — true for every
// registered policy.
func orderingKey(whash uint64, policyName string, seed int64) uint64 {
	x := newArtifactHasher()
	x.u64(whash)
	x.str(policyName)
	x.u64(uint64(seed))
	return x.h
}

// curveKey fingerprints an estimate curve: the measurement and ordering
// it was built from plus the two estimate-model knobs.
func curveKey(mkey, okey uint64, priceFactor float64, sizeAware bool) uint64 {
	x := newArtifactHasher()
	x.u64(mkey)
	x.u64(okey)
	x.f64(priceFactor)
	x.bool(sizeAware)
	return x.h
}

// analysisKey fingerprints an analysis artifact: the workload and the
// string the owning policy names the sub-result by.
func analysisKey(whash uint64, key string) uint64 {
	x := newArtifactHasher()
	x.u64(whash)
	x.str(key)
	return x.h
}

// sharedBaselines serves the (workload, config) baseline measurement,
// computing it at most once across every session sharing the cache.
func (c *ArtifactCache) sharedBaselines(whash uint64, cfg Config, compute func() (Baselines, error)) (Baselines, bool, error) {
	key := measurementKey(whash, cfg)
	return flightDo(&c.mu, c.baselines, &c.baselineHits, key, func() (Baselines, error) {
		b, err := compute()
		if err == nil {
			c.measurements.Add(1)
		}
		return b, err
	})
}

// sharedOrdering serves the (workload, policy, seed) ordering.
func (c *ArtifactCache) sharedOrdering(whash uint64, policyName string, seed int64, compute func() (Ordering, error)) (Ordering, bool, error) {
	return flightDo(&c.mu, c.orderings, &c.orderingHits, orderingKey(whash, policyName, seed), compute)
}

// sharedCurve serves the estimate curve derived from a measurement and
// an ordering under the estimate-model knobs.
func (c *ArtifactCache) sharedCurve(whash uint64, cfg Config, policyName string, compute func() (*Curve, error)) (*Curve, bool, error) {
	key := curveKey(measurementKey(whash, cfg), orderingKey(whash, policyName, cfg.Server.Seed),
		cfg.PriceFactor, cfg.SizeAwareEstimate)
	return flightDo(&c.mu, c.curves, &c.curveHits, key, compute)
}

// analysisSessionKey is the context key under which a shared session's
// analyze stage hands itself to TieringPolicy.Order: its cache and
// workload hash are where SharedAnalysis keeps artifacts.
type analysisSessionKey struct{}

// SharedAnalysis is how a policy's Order shares work between candidates:
// it returns the analysis artifact stored under key, running compute to
// produce it if it is the first to ask. Under a session that has an
// ArtifactCache, the artifact is held under (workload hash, key) for the
// cache's lifetime and every later Order over the same workload content
// — another parameter vector of the same policy, say — gets the same
// value back. Anywhere else (a plain Session, a direct Order call) there
// is nothing to share with, and SharedAnalysis just runs compute.
//
// What may be stored: a value that is a function of the workload content
// and the key alone — never of the policy's parameters, unless they are
// spelled into the key — and that nobody writes after compute returns.
// The value is handed to concurrent sessions as is; callers copy out of
// it, they do not modify it.
//
// compute is told whether its result will be shared, so it can produce
// the form that serves every caller (a DP table solved at the largest
// capacity anyone can ask for) instead of the one this caller needs.
func SharedAnalysis[T any](ctx context.Context, key string, compute func(shared bool) (T, error)) (T, error) {
	s, _ := ctx.Value(analysisSessionKey{}).(*Session)
	if s == nil {
		return compute(false)
	}
	c := s.shared
	v, computed, err := flightDo(&c.mu, c.analyses, &c.analysisHits, analysisKey(s.whash, key), func() (any, error) {
		v, err := compute(true)
		if err == nil {
			c.analysisComputes.Add(1)
		}
		return v, err
	})
	var zero T
	if err != nil {
		return zero, err
	}
	if !computed {
		s.cacheHit("analysis", "shared artifact cache, "+key)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("core: analysis artifact %q holds a %T, not a %T", key, v, zero)
	}
	return t, nil
}

// artifactHasher is FNV-64a over typed fields.
type artifactHasher struct{ h uint64 }

func newArtifactHasher() *artifactHasher {
	return &artifactHasher{h: 14695981039346656037}
}

func (x *artifactHasher) byte(b byte) {
	x.h ^= uint64(b)
	x.h *= 1099511628211
}

func (x *artifactHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		x.byte(byte(v))
		v >>= 8
	}
}

func (x *artifactHasher) f64(v float64) { x.u64(math.Float64bits(v)) }

func (x *artifactHasher) bool(v bool) {
	if v {
		x.byte(1)
	} else {
		x.byte(0)
	}
}

func (x *artifactHasher) str(s string) {
	x.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		x.byte(s[i])
	}
}
