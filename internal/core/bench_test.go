package core

// Before/after benchmark of the validation sweep. The Sequential
// sub-benchmark is a frozen replica of the pre-optimization Validate:
// one point after another, every repetition on a freshly populated
// deployment driven through the per-op replay path
// (server.Config.DisableBatchReplay). Each point is a one-leg measuring
// call (client.Measure), so both sides price the LLC from the
// workload's shared hit stream. The Parallel side is the shipped
// ValidateWorkers, which fans the deduplicated points over the worker
// pool and measures each through the batched kernel. On a single-CPU
// host the measured speedup is the kernel's gain alone; with spare
// cores the pool fan-out multiplies it. Both sides produce the same validation points up to
// the replay path's bit-identity.

import (
	"context"
	"fmt"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// legacyValidate is the frozen pre-optimization sweep loop, preserved
// apart from the DisableBatchReplay pin that keeps it on the per-op
// path it was written against and from measuring each point with a
// one-leg measuring call.
func legacyValidate(ctx context.Context, cfg Config, w *ycsb.Workload, c *Curve, ord Ordering, samples int) ([]ValidationPoint, error) {
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	keys := len(ord.Keys)
	var out []ValidationPoint
	for i := 1; i <= samples; i++ {
		k := i * keys / (samples + 1)
		if k <= 0 || k >= keys {
			continue
		}
		point := c.Points[k]
		placement, err := PlacementFor(ord, point)
		if err != nil {
			return nil, err
		}
		runCfg := ncfg.Server
		runCfg.DisableBatchReplay = true
		runCfg.Seed += int64(i) * 104729
		sts, err := client.Measure(ctx, w, ncfg.Runs, 0, runCfg.Obs, []client.Leg{
			{Name: fmt.Sprintf("core: validating point %d", k), Cfg: runCfg, Placement: placement},
		})
		if err != nil {
			return nil, err
		}
		measured := sts[0]
		vp := ValidationPoint{Point: point, Measured: measured}
		if measured.ThroughputOpsSec > 0 {
			vp.ThroughputErrPct = (measured.ThroughputOpsSec - point.EstThroughputOps) /
				measured.ThroughputOpsSec * 100
		}
		if measured.AvgNs > 0 {
			vp.AvgLatencyErrPct = (measured.AvgNs - point.EstAvgLatencyNs) /
				measured.AvgNs * 100
		}
		out = append(out, vp)
	}
	return out, nil
}

// BenchmarkValidateParallel measures one full validation sweep per
// iteration — 6 interior curve points, 3 repetitions each — through the
// frozen sequential/per-op sweep and the shipped parallel one.
func BenchmarkValidateParallel(b *testing.B) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "validate_bench", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.95, Sizes: ycsb.SizeFixed100KB, Seed: 42,
	})
	cfg := DefaultConfig(server.RedisLike, 42)
	cfg.Runs = 3
	rep, err := Profile(context.Background(), cfg, w, Touch, 0)
	if err != nil {
		b.Fatal(err)
	}
	const samples = 6

	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyValidate(context.Background(), cfg, w, rep.Curve, rep.Ordering, samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ValidateWorkers(context.Background(), cfg, w, rep.Curve, rep.Ordering, samples, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
