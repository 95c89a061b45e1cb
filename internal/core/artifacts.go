package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// ArtifactCache is the content-addressed artifact store every Session
// keeps its stages in (DESIGN.md §17): artifacts keyed by what they
// depend on instead of by the Session that produced them. Baselines are
// keyed by (workload hash, measurement config), orderings by (workload
// hash, policy name, seed), curves by (ordering key, measurement key,
// price factor, size-awareness) — so N sessions that differ only in their
// tiering policy's parameter vector share exactly one Fast+Slow
// measurement, and sessions that differ in nothing but the placement cut
// (the SLO) re-read one cached curve.
//
// Every entry is computed at most once per key: the stages share one
// ycsb.Memo, the singleflight every trace-derived artifact goes through,
// so the first session to need an artifact computes it while concurrent
// sessions block on the same entry, and a failed computation is dropped
// so a later call can retry rather than caching the error forever.
// Construct with NewArtifactCache and hand the same cache to each session
// via NewSharedSession; a session given none gets a private cache of its
// own (newSessionCache). Cached artifacts are shared structures — treat
// them as immutable: an artifact is published only after its computation
// has returned, is read concurrently by every session on the cache, and
// is never written again. Nothing is evicted on success; artifacts live
// and die with the cache that holds them.
type ArtifactCache struct {
	// plain is the workload of a plain session's cache (newSessionCache),
	// keyed 0 and never hashed; nil on a shared cache.
	plain *ycsb.Workload
	memo  ycsb.Memo // artifactKey → Baselines, Ordering or *Curve

	measurements atomic.Int64
	hits         [stages]atomic.Int64 // artifacts served from memo, by stage
}

// NewArtifactCache returns an empty cache, ready to share across
// sessions and goroutines.
func NewArtifactCache() *ArtifactCache { return new(ArtifactCache) }

// newSessionCache is the cache of a session that was given none. It
// serves one workload, so the workload needs no fingerprint: it is
// keyed 0 up front and never walked (a 2M-request trace would be read
// end to end just to name it).
func newSessionCache(w *ycsb.Workload) *ArtifactCache {
	return &ArtifactCache{plain: w}
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
}

// Stats snapshots the cache's counters.
func (c *ArtifactCache) Stats() CacheStats {
	return CacheStats{
		Measurements: c.measurements.Load(),
		BaselineHits: c.hits[stageBaselines].Load(),
		OrderingHits: c.hits[stageOrdering].Load(),
		CurveHits:    c.hits[stageCurve].Load(),
	}
}

// The pipeline stages whose artifacts the cache keeps.
const (
	stageBaselines = iota
	stageOrdering
	stageCurve
	stages
)

// artifactKey names one stage artifact in the cache's memo.
type artifactKey struct {
	stage int
	key   uint64
}

// cached serves one stage artifact from the cache's memo, computing it
// if absent, and counts a hit when this caller did not compute it and
// the computation succeeded. The returned bool reports whether this
// caller ran compute.
func cached[T any](c *ArtifactCache, stage int, key uint64, compute func() (T, error)) (T, bool, error) {
	v, built, err := c.memo.Do(artifactKey{stage, key}, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, built, err
	}
	if !built {
		c.hits[stage].Add(1)
	}
	return v.(T), built, nil
}

type workloadHashKey struct{} // WorkloadHash's key in the workload's Derived memo

// WorkloadHash fingerprints a workload's full content — spec name,
// dataset (key names and sizes, in order) and request trace (key index
// and op kind, in order) — with FNV-64a. Two workloads with equal hashes
// produce bit-identical measurements under equal configs. The hash walks
// the whole trace, so it is memoized on the workload
// (ycsb.Workload.Derived): concurrent first callers share one walk, and
// a streamed trace is read once end to end whatever cache asks.
func (c *ArtifactCache) WorkloadHash(w *ycsb.Workload) (uint64, error) {
	if w == c.plain {
		return 0, nil
	}
	h, err := w.Derived(workloadHashKey{}, func() (any, error) { return workloadHash(w) })
	if err != nil {
		return 0, fmt.Errorf("core: hashing workload: %w", err)
	}
	return h.(uint64), nil
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
	// 0 and 1 both mean one deployment: one measurement.
	x.u64(uint64(max(s.Shards, 1)))
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

// sharedBaselines serves the (workload, config) baseline measurement,
// computing it at most once across every session sharing the cache.
func (c *ArtifactCache) sharedBaselines(whash uint64, cfg Config, compute func() (Baselines, error)) (Baselines, bool, error) {
	key := measurementKey(whash, cfg)
	return cached(c, stageBaselines, key, func() (Baselines, error) {
		b, err := compute()
		if err == nil {
			c.measurements.Add(1)
		}
		return b, err
	})
}

// sharedOrdering serves the (workload, policy, seed) ordering.
func (c *ArtifactCache) sharedOrdering(whash uint64, policyName string, seed int64, compute func() (Ordering, error)) (Ordering, bool, error) {
	return cached(c, stageOrdering, orderingKey(whash, policyName, seed), compute)
}

// sharedCurve serves the estimate curve derived from a measurement and
// an ordering under the estimate-model knobs.
func (c *ArtifactCache) sharedCurve(whash uint64, cfg Config, policyName string, compute func() (*Curve, error)) (*Curve, bool, error) {
	key := curveKey(measurementKey(whash, cfg), orderingKey(whash, policyName, cfg.Server.Seed),
		cfg.PriceFactor, cfg.SizeAwareEstimate)
	return cached(c, stageCurve, key, compute)
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
