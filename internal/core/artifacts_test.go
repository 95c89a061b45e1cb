package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func artifactsWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "artifacts-test", Keys: 100, Requests: 2000, Seed: 11,
		ReadRatio: 0.9,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		Sizes:     ycsb.SizeThumbnail,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

// N sessions over one workload and config share exactly one baseline
// measurement through the cache, and their reports are bit-identical to
// an unshared session's.
func TestSharedSessionsShareOneMeasurement(t *testing.T) {
	w := artifactsWorkload(t)
	cfg := DefaultConfig(server.RedisLike, 42)
	cache := NewArtifactCache()
	ctx := context.Background()

	plain, err := NewSession(cfg, w)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	want, err := plain.Run(ctx, MnemoT, 0.10)
	if err != nil {
		t.Fatalf("plain Run: %v", err)
	}

	const n = 8
	for i := 0; i < n; i++ {
		s, err := NewSharedSession(cfg, w, cache)
		if err != nil {
			t.Fatalf("NewSharedSession: %v", err)
		}
		got, err := s.Run(ctx, MnemoT, 0.10)
		if err != nil {
			t.Fatalf("shared Run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Baselines, want.Baselines) {
			t.Fatalf("session %d: shared baselines differ from unshared", i)
		}
		if !reflect.DeepEqual(got.Curve.Points, want.Curve.Points) {
			t.Fatalf("session %d: shared curve differs from unshared", i)
		}
		if !reflect.DeepEqual(got.Advice, want.Advice) {
			t.Fatalf("session %d: shared advice differs from unshared", i)
		}
		wantMeasures := 0
		if i == 0 {
			wantMeasures = 1
		}
		if s.MeasureCount() != wantMeasures {
			t.Fatalf("session %d executed %d measurements, want %d", i, s.MeasureCount(), wantMeasures)
		}
	}
	st := cache.Stats()
	if st.Measurements != 1 {
		t.Fatalf("cache executed %d measurements for %d sessions, want 1", st.Measurements, n)
	}
	if st.BaselineHits != n-1 || st.OrderingHits != n-1 || st.CurveHits != n-1 {
		t.Fatalf("hits = %+v, want %d of each", st, n-1)
	}
}

// Sessions whose policies differ share the measurement but not the
// ordering/curve; a different measurement config shares nothing.
func TestArtifactCacheKeying(t *testing.T) {
	w := artifactsWorkload(t)
	cfg := DefaultConfig(server.RedisLike, 42)
	cache := NewArtifactCache()
	ctx := context.Background()

	for _, p := range []TieringPolicy{Touch, MnemoT} {
		s, err := NewSharedSession(cfg, w, cache)
		if err != nil {
			t.Fatalf("NewSharedSession: %v", err)
		}
		if _, err := s.Run(ctx, p, 0.10); err != nil {
			t.Fatalf("Run(%s): %v", p.Name(), err)
		}
	}
	st := cache.Stats()
	if st.Measurements != 1 {
		t.Fatalf("distinct policies forced %d measurements, want 1", st.Measurements)
	}
	if st.OrderingHits != 0 || st.CurveHits != 0 {
		t.Fatalf("distinct policies shared orderings/curves: %+v", st)
	}

	// A config that changes the measurement (different seed) must not
	// reuse the baselines.
	cfg2 := DefaultConfig(server.RedisLike, 43)
	s, err := NewSharedSession(cfg2, w, cache)
	if err != nil {
		t.Fatalf("NewSharedSession: %v", err)
	}
	if _, err := s.Run(ctx, Touch, 0.10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := cache.Stats().Measurements; got != 2 {
		t.Fatalf("changed seed reused the measurement (total %d, want 2)", got)
	}

	// Estimate-model knobs invalidate only the curve: same measurement,
	// same ordering, new curve.
	cfg3 := cfg
	cfg3.PriceFactor = 0.4
	before := cache.Stats()
	s3, err := NewSharedSession(cfg3, w, cache)
	if err != nil {
		t.Fatalf("NewSharedSession: %v", err)
	}
	if _, err := s3.Run(ctx, Touch, 0.10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	after := cache.Stats()
	if after.Measurements != before.Measurements {
		t.Fatalf("price factor change forced a measurement")
	}
	if after.OrderingHits != before.OrderingHits+1 {
		t.Fatalf("price factor change did not reuse the ordering: %+v vs %+v", after, before)
	}
	if after.CurveHits != before.CurveHits {
		t.Fatalf("price factor change reused a stale curve: %+v vs %+v", after, before)
	}
}

// Shards 0 and 1 both mean one deployment, so sessions at either share
// one measurement through the cache.
func TestArtifactCacheOneDeploymentAtShardsZeroAndOne(t *testing.T) {
	w := artifactsWorkload(t)
	cache := NewArtifactCache()
	ctx := context.Background()
	var reps []*Report
	for _, shards := range []int{0, 1} {
		cfg := DefaultConfig(server.RedisLike, 42)
		cfg.Server.Shards = shards
		s, err := NewSharedSession(cfg, w, cache)
		if err != nil {
			t.Fatalf("NewSharedSession: %v", err)
		}
		rep, err := s.Run(ctx, Touch, 0.10)
		if err != nil {
			t.Fatalf("Run at Shards=%d: %v", shards, err)
		}
		reps = append(reps, rep)
	}
	if got := cache.Stats().Measurements; got != 1 {
		t.Fatalf("Shards 0 and 1 executed %d measurements, want 1", got)
	}
	if !reflect.DeepEqual(reps[0].Baselines, reps[1].Baselines) {
		t.Fatal("Shards 0 and 1 reported different baselines")
	}
}

// Two different workloads never collide in the cache.
func TestArtifactCacheDistinguishesWorkloads(t *testing.T) {
	cfg := DefaultConfig(server.RedisLike, 42)
	cache := NewArtifactCache()
	ctx := context.Background()
	w1 := artifactsWorkload(t)
	w2, err := ycsb.Generate(ycsb.Spec{
		Name: "artifacts-test", Keys: 100, Requests: 2000, Seed: 12, // same shape, different seed
		ReadRatio: 0.9,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		Sizes:     ycsb.SizeThumbnail,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, w := range []*ycsb.Workload{w1, w2} {
		s, err := NewSharedSession(cfg, w, cache)
		if err != nil {
			t.Fatalf("NewSharedSession: %v", err)
		}
		if _, err := s.Run(ctx, Touch, 0.10); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got := cache.Stats().Measurements; got != 2 {
		t.Fatalf("different workloads shared a measurement (total %d, want 2)", got)
	}
}

// A failed computation is evicted, not cached: the next session retries
// and can succeed.
func TestArtifactCacheEvictsFailures(t *testing.T) {
	w := artifactsWorkload(t)
	cfg := DefaultConfig(server.RedisLike, 42)
	cache := NewArtifactCache()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1, err := NewSharedSession(cfg, w, cache)
	if err != nil {
		t.Fatalf("NewSharedSession: %v", err)
	}
	if _, err := s1.Measure(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Measure error = %v, want context.Canceled", err)
	}

	s2, err := NewSharedSession(cfg, w, cache)
	if err != nil {
		t.Fatalf("NewSharedSession: %v", err)
	}
	if _, err := s2.Measure(context.Background()); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := cache.Stats().Measurements; got != 1 {
		t.Fatalf("measurements = %d, want 1", got)
	}

	// A policy whose Order panics once does not wedge its ordering key:
	// the panic reaches the caller and the next Analyze orders afresh.
	p := &panicOncePolicy{}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Analyze panic = %v, want boom", r)
			}
		}()
		s2.Analyze(context.Background(), p)
	}()
	if _, err := s2.Analyze(context.Background(), p); err != nil {
		t.Fatalf("Analyze after the panic: %v", err)
	}
	if st := cache.Stats(); p.calls != 2 || st.OrderingHits != 0 {
		t.Fatalf("Order ran %d times with %d ordering hits, want 2 and 0", p.calls, st.OrderingHits)
	}
}

// panicOncePolicy is Touch, but its first Order panics.
type panicOncePolicy struct{ calls int }

func (p *panicOncePolicy) Name() string { return "panic-once" }

func (p *panicOncePolicy) Order(ctx context.Context, w *ycsb.Workload) (Ordering, error) {
	if p.calls++; p.calls == 1 {
		panic("boom")
	}
	return Touch.Order(ctx, w)
}

// Concurrent shared sessions still execute the measurement exactly once
// (singleflight) and all observe identical baselines.
func TestArtifactCacheConcurrentSingleflight(t *testing.T) {
	w := artifactsWorkload(t)
	cfg := DefaultConfig(server.RedisLike, 42)
	cache := NewArtifactCache()
	ctx := context.Background()

	const n = 16
	results := make([]Baselines, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSharedSession(cfg, w, cache)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Measure(ctx)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("session %d observed different baselines", i)
		}
	}
	if got := cache.Stats().Measurements; got != 1 {
		t.Fatalf("measurements = %d, want 1", got)
	}
}

// The workload hash covers name, dataset and trace content.
func TestWorkloadHashSensitivity(t *testing.T) {
	cache := NewArtifactCache()
	w := artifactsWorkload(t)
	h1, err := cache.WorkloadHash(w)
	if err != nil {
		t.Fatalf("WorkloadHash: %v", err)
	}
	// Memoized per pointer.
	h2, err := cache.WorkloadHash(w)
	if err != nil || h2 != h1 {
		t.Fatalf("memoized hash changed: %x vs %x (err %v)", h2, h1, err)
	}
	// An identical regeneration hashes equal through a fresh pointer.
	same := artifactsWorkload(t)
	h3, err := cache.WorkloadHash(same)
	if err != nil || h3 != h1 {
		t.Fatalf("identical workload hashed differently: %x vs %x (err %v)", h3, h1, err)
	}
	// Flipping one op kind changes the hash.
	mut := artifactsWorkload(t)
	mut.Ops[0].Kind ^= 1
	h4, err := cache.WorkloadHash(mut)
	if err != nil {
		t.Fatalf("WorkloadHash: %v", err)
	}
	if h4 == h1 {
		t.Fatal("op-kind mutation did not change the workload hash")
	}
	// Changing one record size changes the hash.
	mut2 := artifactsWorkload(t)
	mut2.Dataset.Records[0].Size++
	h5, err := cache.WorkloadHash(mut2)
	if err != nil {
		t.Fatalf("WorkloadHash: %v", err)
	}
	if h5 == h1 {
		t.Fatal("record-size mutation did not change the workload hash")
	}
}
