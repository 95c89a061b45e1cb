package client

import (
	"context"
	"fmt"
	"testing"

	"mnemo/internal/server"
)

// BenchmarkReplaySharded measures one full trace replay per iteration
// across cluster sizes — the benchgate scaling family. Each iteration
// rewinds the cluster (ResetRun snapshot free-list) and replays the
// partitioned trace through runSharded, so the measured work is exactly
// the steady-state multi-core replay: per-shard batched kernels plus
// the deterministic merge. On a multi-core host Shards4 should beat
// Shards1 by the core count (less merge overhead); on a single-core
// host the ratio is ~1 and the benchgate family pins it there.
func BenchmarkReplaySharded(b *testing.B) {
	w := benchWorkload(b)
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastIdx[i] = i
	}
	p := server.FastIndices(fastIdx, len(recs))
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Ops)), "ns/req")
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Shards%d", shards), func(b *testing.B) {
			cfg := server.DefaultConfig(server.RedisLike, 42)
			cfg.Shards = shards
			sd, err := server.NewShardedDeployment(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			if err := sd.Load(p); err != nil {
				b.Fatal(err)
			}
			if !sd.Reusable() {
				b.Fatal("cluster not snapshot-resettable")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sd.ResetRun(cfg.Seed) {
					b.Fatal("reset failed")
				}
				if _, err := runSharded(ctx, cfg, sd); err != nil {
					b.Fatal(err)
				}
			}
			perOp(b)
		})
	}
}
