package client

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// streamedTwin spills a workload to a temporary .mtrc file and reopens
// it as a streamed workload: same dataset, same op sequence, different
// backing. Every equivalence test below runs the pair through identical
// configs and demands bit-identical outcomes.
func streamedTwin(t *testing.T, w *ycsb.Workload) *ycsb.Workload {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	tw, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// The on-disk header carries only the trace dimensions; restore the
	// full spec so run labels match the in-memory twin's.
	tw.Spec = w.Spec
	return tw
}

// requireTwinOutcome runs one config over both backings of the same
// trace and asserts bit-identical stats and error text.
func requireTwinOutcome(t *testing.T, label string, cfg server.Config, w, tw *ycsb.Workload, p server.Placement) {
	t.Helper()
	want, errW := measureRun(cfg, w, p)
	got, errT := measureRun(cfg, tw, p)
	if (errW == nil) != (errT == nil) {
		t.Fatalf("%s: in-memory err %v, streamed err %v", label, errW, errT)
	}
	if errW != nil && errW.Error() != errT.Error() {
		t.Fatalf("%s: error text diverged:\n  in-memory: %v\n  streamed:  %v", label, errW, errT)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: stats diverged:\n  in-memory: %+v\n  streamed:  %+v", label, want, got)
	}
}

// TestStreamedReplayEngages pins the preconditions that make the
// equivalence tests below meaningful: a spilled read/write trace comes
// back stream-backed with every frame flagged for the batched kernel,
// and the default deployment actually exposes the kernel to serve them.
func TestStreamedReplayEngages(t *testing.T) {
	tw := streamedTwin(t, testWorkload(0.9))
	if tw.Stream == nil {
		t.Fatal("reopened trace is not stream-backed")
	}
	if tw.Packed() != nil {
		t.Fatal("stream-backed workload still exposes a packed trace")
	}
	frames, err := tw.Frames()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, rw, err := frames.Next()
		if err != nil {
			break
		}
		if !rw {
			t.Fatal("read/write trace produced a frame not flagged for the kernel")
		}
	}
	d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 1))
	if err := d.Load(tw.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	if d.BatchTable() == nil {
		t.Fatal("BatchTable nil on a loaded default deployment")
	}
}

// TestStreamedReplayBitIdentical is the streamed golden-equivalence
// test: for every engine, placement split, read ratio and replay path
// (kernel and per-op reference), replaying from disk must reproduce the
// in-memory run bit for bit.
func TestStreamedReplayBitIdentical(t *testing.T) {
	for _, ratio := range []float64{1.0, 0.7} {
		w := testWorkload(ratio)
		tw := streamedTwin(t, w)
		half := make([]int, 500)
		for i := range half {
			half[i] = i
		}
		for _, e := range goldenEngines {
			for _, p := range []server.Placement{server.AllFast(), server.AllSlow(), server.FastIndices(half, len(w.Dataset.Records))} {
				cfg := server.DefaultConfig(e, 42)
				requireTwinOutcome(t, e.String(), cfg, w, tw, p)
				perOp := cfg
				perOp.DisableBatchReplay = true
				requireTwinOutcome(t, e.String()+"/per-op", perOp, w, tw, p)
			}
		}
	}
}

// deleteStreamWorkload is deleteTraceWorkload's pattern at trace scale:
// a read-heavy trace with Deletes scattered through it, so streamed
// replay must classify frames, fall back to per-op pricing for the
// Delete-bearing ones, and re-prime the kernel afterwards.
func deleteStreamWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "stream-delete", Keys: 400, Requests: 9000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.9,
		Sizes:     ycsb.SizeThumbnail,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < len(w.Ops); i += 97 {
		w.Ops[i].Kind = kvstore.Delete
	}
	return w
}

// TestStreamedReplayDeleteBitIdentical covers the structural-frame
// path: Delete-bearing frames drop to per-op pricing while read/write
// frames before and after still take the kernel — and the result must
// equal the in-memory run on either path.
func TestStreamedReplayDeleteBitIdentical(t *testing.T) {
	w := deleteStreamWorkload(t)
	if w.Packed().Batchable() {
		t.Fatal("delete trace still batchable; per-op frames not exercised")
	}
	tw := streamedTwin(t, w)
	for _, e := range goldenEngines {
		cfg := server.DefaultConfig(e, 42)
		requireTwinOutcome(t, e.String(), cfg, w, tw, server.AllSlow())
		perOp := cfg
		perOp.DisableBatchReplay = true
		requireTwinOutcome(t, e.String()+"/per-op", perOp, w, tw, server.AllFast())
	}
}

// TestStreamedFramesShareOneLLC proves the batched and the per-op
// frames of one streamed run see a single LLC — both address it by
// record index. The trace is three frames over a dataset that fits the
// cache: frame 0 reads every record once (kernel, all misses); frame 1
// reads them again but deletes and re-inserts one (a structural frame,
// served per-op — every read hits only if it finds what the kernel
// inserted); frame 2 reads every record once more (kernel again, after
// the table re-price — every read hits only if it finds what the per-op
// frame left, including the re-inserted record). The exact hit count
// follows, and the whole run must equal the all-per-op reference.
// (treekv's delete leaves a full node behind, so that engine stops
// promising static traces and serves frame 2 per-op as well; it still
// covers the kernel-to-per-op direction.)
func TestStreamedFramesShareOneLLC(t *testing.T) {
	const n = replayBlockOps
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "one-llc", Keys: n, Requests: 3 * n,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 1.0, Sizes: ycsb.SizeFixed1KB, Seed: 17,
	})
	for i := range w.Ops {
		w.Ops[i] = ycsb.Op{Key: i % n, Kind: kvstore.Read}
	}
	// Frame 1: records 7 and 8 give up their reads to a delete and a
	// re-inserting write of record 7.
	w.Ops[n+7].Kind = kvstore.Delete
	w.Ops[n+8] = ycsb.Op{Key: 7, Kind: kvstore.Write}
	tw := streamedTwin(t, w)

	// Frame 1: its n-2 reads hit; the delete (footprint 0, a size
	// change) and the re-inserting write miss. Frame 2: all n reads hit,
	// record 8 included — nothing was evicted.
	wantHitRate := float64((n-2)+n) / float64(3*n)

	for _, e := range goldenEngines {
		cfg := server.DefaultConfig(e, 42)
		want, err := measureRun(perOpReference(cfg), w, server.AllSlow())
		if err != nil {
			t.Fatal(err)
		}

		d := server.NewDeployment(cfg)
		if err := d.Load(tw.Dataset, server.AllSlow()); err != nil {
			t.Fatal(err)
		}
		if d.BatchTable() == nil {
			t.Fatalf("%v: no batch table; frame 0 would not take the kernel", e)
		}
		got, err := RunCtx(context.Background(), d, tw, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.BatchTable() == nil && e != server.DynamoLike {
			t.Fatalf("%v: table not re-priced after the structural frame; frame 2 did not take the kernel", e)
		}
		if got.LLCHitRate != wantHitRate {
			t.Errorf("%v: LLC hit rate %v, want exactly %v", e, got.LLCHitRate, wantHitRate)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: streamed run diverged from the per-op reference:\n  streamed: %+v\n  per-op:   %+v", e, got, want)
		}
	}
}

// TestStreamedShardedBitIdentical covers the partitioner's spool path:
// a streamed workload split across a consistent-hash cluster — on both
// a clean read/write trace and a Delete-bearing one — must measure
// bit-identically to the same cluster fed from memory.
func TestStreamedShardedBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *ycsb.Workload
	}{
		{"readwrite", testWorkload(0.9)},
		{"deletes", deleteStreamWorkload(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := streamedTwin(t, tc.w)
			for _, shards := range []int{2, 3} {
				cfg := server.DefaultConfig(server.RedisLike, 42)
				cfg.Shards = shards
				requireTwinOutcome(t, fmt.Sprintf("shards=%d", shards), cfg, tc.w, tw, server.AllFast())
			}
		})
	}
}

// TestStreamedReplayBoundedMemory is the O(frame) guarantee: heap
// allocation during a streamed replay must not scale with trace length —
// static or adaptive, where the epoch tallies add O(records), not
// O(trace). The default trace is 64 frames; setting
// MNEMO_BIGTRACE_OPS=100000000 scales the same check to a 100M-op,
// ~500MB trace. Materializing a 2.6M-op trace would need ≥13MB for the
// packed ops alone; the streamed replay must stay far under that.
func TestStreamedReplayBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-op trace replay")
	}
	ops := 64 * 4096
	if env := os.Getenv("MNEMO_BIGTRACE_OPS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("MNEMO_BIGTRACE_OPS: %v", err)
		}
		ops = v
	}
	spec := ycsb.Spec{
		Name: "bigtrace", Keys: 4096, Requests: ops,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.95, Sizes: ycsb.SizeFixed1KB, Seed: 21,
	}
	path := filepath.Join(t.TempDir(), "big.mtrc")
	w, err := trace.GenerateFile(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace: %d ops, %d bytes on disk", ops, st.Size())

	for _, mode := range []string{"static", "adaptive"} {
		t.Run(mode, func(t *testing.T) {
			cfg := server.DefaultConfig(server.RedisLike, 3)
			if mode == "adaptive" {
				cfg.Adaptive = greedySource{}
				cfg.EpochOps = 4 * replayBlockOps
			}
			d := server.NewDeployment(cfg)
			if err := d.Load(w.Dataset, halfFast(w)); err != nil {
				t.Fatal(err)
			}
			classes := sizeClasses(w.Dataset.Records)
			a := newReplayAccum(classes)

			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tel, err := replayFrames(context.Background(), d, w, classes, a)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocated := after.TotalAlloc - before.TotalAlloc
			if mode == "adaptive" && tel.moves == 0 {
				t.Fatal("adaptive run never migrated")
			}

			// The whole replay may allocate a few frame buffers and iterator
			// scaffolding — nothing that grows with the trace. 8MB is ~40× the
			// per-iterator footprint and far below the packed in-memory cost of
			// even the default trace length.
			const capBytes = 8 << 20
			if allocated > capBytes {
				t.Fatalf("streamed replay of %d ops allocated %d bytes, cap %d", ops, allocated, capBytes)
			}
			t.Logf("replay allocated %d bytes total (cap %d)", allocated, capBytes)
		})
	}
}

// BenchmarkReplayStreamed measures the streamed frame path against the
// in-memory batched kernel it mirrors: same deployment, same trace,
// identical simulated results (TestStreamedReplayBitIdentical) — the
// streamed side additionally pays frame decode, CRC verification and
// the 64KB read-ahead. The benchgate family for this benchmark holds
// the streamed-over-batched ratio near 1.0: streaming from disk must
// stay within a few percent of replaying from memory.
func BenchmarkReplayStreamed(b *testing.B) {
	w := benchWorkload(b)
	path := filepath.Join(b.TempDir(), "bench.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		b.Fatal(err)
	}
	tw, err := trace.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	tw.Spec = w.Spec
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

	b.Run("Batched", func(b *testing.B) {
		benchReplay(b, benchDeployment(b, benchConfig(), w, p), w)
		perOp(b)
	})
	b.Run("Streamed", func(b *testing.B) {
		benchReplay(b, benchDeployment(b, benchConfig(), tw, p), tw)
		perOp(b)
	})
}
