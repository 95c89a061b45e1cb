package client

// Microbenchmarks of the replay loop. The paired ones compare two shipped
// paths of one process under a configuration flip (DisableBatchReplay,
// EpochOps, worker count).

import (
	"context"
	"runtime"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

func benchWorkload(b *testing.B) *ycsb.Workload {
	b.Helper()
	// Quick scale: 1 000 keys × 10 000 requests, the repo's fast
	// experiment tier. Records are the paper's ≈100 KB thumbnail objects,
	// which keeps the hot set (≈20 MB) larger than the 12 MB LLC so the
	// replay exercises the cache eviction path, not just hits.
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "bench", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.95, Sizes: ycsb.SizeFixed100KB, Seed: 42,
	})
}

func benchConfig() server.Config { return server.DefaultConfig(server.RedisLike, 42) }

func benchDeployment(b *testing.B, cfg server.Config, w *ycsb.Workload, p server.Placement) *server.Deployment {
	b.Helper()
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		b.Fatal(err)
	}
	return d
}

// benchReplay times b.N passes of the replay loop over one deployment —
// client.Run without the RunStats assembly. Which path serves the frames
// is the deployment's configuration: DisableBatchReplay for per-op,
// EpochOps with an adaptive source for epochs, a stream-backed workload
// for decoded frames.
func benchReplay(b *testing.B, d *server.Deployment, w *ycsb.Workload) {
	b.Helper()
	classes := sizeClasses(w.Dataset.Records)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayFrames(ctx, d, w, classes, newReplayAccum(classes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBatched measures the batched replay kernel against the
// shipped per-op indexed path it supersedes: same deployment layout,
// same trace, identical simulated results (TestBatchedReplayBitIdentical)
// — only the per-request machinery differs. Indexed drives every request
// through DoIndex (engine interface call, trace pricing, pause polling);
// Batched streams the packed trace through the precomputed cost table.
// BatchedPausing is Batched on DynamoLike, whose kernel charges the
// engine's GC model once per request (ChargeReplay); it is no gated pair,
// only the one measurement of that path.
func BenchmarkReplayBatched(b *testing.B) {
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

	b.Run("Indexed", func(b *testing.B) {
		benchReplay(b, benchDeployment(b, perOpReference(benchConfig()), w, p), w)
		perOp(b)
	})
	b.Run("Batched", func(b *testing.B) {
		d := benchDeployment(b, benchConfig(), w, p)
		benchReplay(b, d, w)
		if !d.Rewindable() {
			b.Fatal("a frame left the kernel path")
		}
		perOp(b)
	})
	b.Run("BatchedPausing", func(b *testing.B) {
		d := benchDeployment(b, server.DefaultConfig(server.DynamoLike, 42), w, p)
		benchReplay(b, d, w)
		if !d.Rewindable() {
			b.Fatal("a frame left the kernel path")
		}
		perOp(b)
	})
}

// BenchmarkFoldBlock times the accumulator side of the batched path
// alone: folding served blocks into the per-(kind, size class) latency
// histograms. The blocks are a mixed-size read-mostly trace (the
// trending preview mixture) served once through the kernel up front, so
// the latencies and their class spread are the replay's own.
func BenchmarkFoldBlock(b *testing.B) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "fold", Keys: 10000, Requests: 16 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.95, Sizes: ycsb.SizeTrendingPreview, Seed: 42,
	})
	d := benchDeployment(b, benchConfig(), w, server.AllFast())
	table := d.BatchTable()
	pt := w.Packed()
	lat := make([]simclock.Duration, len(pt.Keys))
	for blk := 0; blk < len(pt.Keys); blk += replayBlockOps {
		end := min(blk+replayBlockOps, len(pt.Keys))
		n := table.Serve(pt.Keys[blk:end], pt.Kinds[blk:end], 0, table.Block())
		copy(lat[blk:], table.Block()[:n])
	}
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	route := a.route[0][:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < len(pt.Keys); blk += replayBlockOps {
			end := min(blk+replayBlockOps, len(pt.Keys))
			a.setRoute(route, pt.Keys[blk:end], pt.Kinds[blk:end], classes)
			a.lanes[0].fold(route[:end-blk], lat[blk:end])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pt.Keys)), "ns/req")
}

// BenchmarkReplayAdaptive measures the adaptive replay against the
// static one, on the same stationary trace and placement. The adaptive
// side pays the epoch machinery in full: the per-record access tally, an observer call per epoch,
// and a two-record migration with the cost-table re-price behind it.
// The benchgate family for this benchmark gates overhead, not speedup:
// its static-over-adaptive ratio sits near (slightly below) 1.0, and
// the gate fails if the adaptive path ever grows markedly slower than
// the static kernel on a trace that never needed to adapt.
func BenchmarkReplayAdaptive(b *testing.B) {
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

	b.Run("Static", func(b *testing.B) {
		benchReplay(b, benchDeployment(b, benchConfig(), w, p), w)
		perOp(b)
	})
	b.Run("Adaptive", func(b *testing.B) {
		cfg := benchConfig()
		cfg.Adaptive = greedySource{}
		cfg.EpochOps = 4096
		benchReplay(b, benchDeployment(b, cfg, w, p), w)
		perOp(b)
	})
}

// BenchmarkExecuteMeanParallel measures repeated-run averaging serially
// and across the worker pool; the runs are independent simulations, so
// wall-clock time should scale down near-linearly with workers (given
// spare cores) while the folded result stays bit-identical
// (TestExecuteMeanWorkersBitIdentical).
func BenchmarkExecuteMeanParallel(b *testing.B) {
	w := benchWorkload(b)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	const runs = 8
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), runs, workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Workers1", bench(1))
	b.Run("WorkersMax", bench(runtime.GOMAXPROCS(0)))
}
