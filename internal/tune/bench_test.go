package tune

import (
	"context"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// benchWorkload is sized so the baseline measurement dominates a
// candidate evaluation — the regime mnemo-tune exists for.
func benchWorkload(b *testing.B) *ycsb.Workload {
	b.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "tune-bench", Keys: 500, Requests: 100_000, Seed: 1,
		ReadRatio: 0.9,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		Sizes:     ycsb.SizeTrendingPreview,
	})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	return w
}

func benchConfig() Config {
	cc := core.DefaultConfig(server.RedisLike, 42)
	cc.Runs = 2
	return Config{Core: cc, SLO: 0.10}
}

// BenchmarkTuneSweep is the headline pairing (gated in CI): the frozen
// naive pipeline measures fresh baselines for every one of 32 candidate
// configs; the memoized sweep shares one content-addressed measurement
// across all of them. Each iteration starts from a cold cache. What
// depends on the trace alone (the LLC stream, key tallies, hash and
// knapsack DP tables) lives on the workload, so both sides read it warm
// after the first iteration.
func BenchmarkTuneSweep(b *testing.B) {
	w := benchWorkload(b)
	cfg := benchConfig()
	cands := DefaultGrid(32)
	ctx := context.Background()

	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Naive(ctx, cfg, w, cands); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New().Sweep(ctx, cfg, w, cands); err != nil {
				b.Fatal(err)
			}
		}
	})
}
