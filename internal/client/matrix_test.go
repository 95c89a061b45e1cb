package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// The replay equivalence matrix. There is one replay loop
// (replayFrames), so every way of feeding it — trace backing, static or
// adaptive, kernel or per-op, private LLC walker or a shared LLC stream,
// uncut or cancelled — must produce the outcome of one reference: the
// in-memory trace replayed with DisableBatchReplay.
// "Outcome" is RunStats (EpochTraffic included) under
// reflect.DeepEqual, the error text, and the deployment's clock when
// the run ended.

// matrixLLCBytes is the matrix's LLC: about half the 500 × 1 KB
// dataset, so the hot set stays resident while the cold tail churns and
// every block mixes hits with misses.
const matrixLLCBytes = 256 << 10

// matrixTraces are the three trace shapes: read/write-only; the same
// length with Deletes confined to two of its five frames; and a
// capture-shaped Delete-dense one. In the second, frame 1 re-inserts
// every record it deletes, so frames 0 and 2 can take the kernel around
// it; frame 3 leaves its records dead for frame 4 to run into.
func matrixTraces() map[string]*ycsb.Workload {
	dels := adaptiveTestWorkload(0.9)
	for i := 40; i < replayBlockOps; i += 611 {
		del := &dels.Ops[replayBlockOps+i]
		del.Kind = kvstore.Delete
		dels.Ops[replayBlockOps+i+1] = ycsb.Op{Key: del.Key, Kind: kvstore.Write}
		dels.Ops[3*replayBlockOps+i].Kind = kvstore.Delete
	}
	return map[string]*ycsb.Workload{"readwrite": adaptiveTestWorkload(0.9), "deletes": dels, "dense": deleteDense(adaptiveTestWorkload(0.9))}
}

// deleteDense turns 3% of w's requests into Deletes of their keys, as a
// Redis MONITOR capture's DELs fall: every frame then carries Deletes,
// reads of deleted records until a Write re-inserts them, and Deletes
// of records already deleted.
func deleteDense(w *ycsb.Workload) *ycsb.Workload {
	x := uint64(42)
	for i := range w.Ops {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>33%100 < 3 {
			w.Ops[i].Kind = kvstore.Delete
		}
	}
	return w
}

// denseShape counts what makes a trace Delete-dense: the frames that
// carry a Delete, and the reads of deleted records, re-inserts and
// Deletes of deleted records.
func denseShape(w *ycsb.Workload) (delFrames, deadReads, reinserts, deadDeletes int) {
	dead := make([]bool, len(w.Dataset.Records))
	lastFrame := -1
	for i, op := range w.Ops {
		switch {
		case op.Kind == kvstore.Delete && dead[op.Key]:
			deadDeletes++
		case op.Kind == kvstore.Delete:
			dead[op.Key] = true
			if f := i / replayBlockOps; f != lastFrame {
				delFrames, lastFrame = delFrames+1, f
			}
		case op.Kind == kvstore.Read && dead[op.Key]:
			deadReads++
		case op.Kind == kvstore.Write && dead[op.Key]:
			dead[op.Key] = false
			reinserts++
		}
	}
	return
}

// packedTwin rebuilds the workload with its trace in packed form only
// (Ops nil) — what a shard sub-workload looks like.
func packedTwin(w *ycsb.Workload) *ycsb.Workload {
	pt := w.Packed()
	return ycsb.FromPacked(w.Spec, w.Dataset,
		append([]uint32(nil), pt.Keys...), append([]uint8(nil), pt.Kinds...))
}

// outcome is everything a matrix cell is compared on, plus the frame
// counters that say which path served it.
type outcome struct {
	Stats RunStats
	Err   string
	Clock simclock.Duration

	kernelFrames, perOpFrames, mixedFrames int64
	kernelRequests, perOpRequests          int64
	structuralReprices                     int64
	streamRequests                         int64
}

func (o outcome) comparable() outcome {
	o.kernelFrames, o.perOpFrames, o.mixedFrames, o.structuralReprices = 0, 0, 0, 0
	o.kernelRequests, o.perOpRequests = 0, 0
	o.streamRequests = 0
	return o
}

// runCell loads a fresh deployment of cfg under p and runs w on it:
// priced from a new LLC share of its own when shared, else by its
// private walker.
func runCell(t *testing.T, ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, shared bool) outcome {
	t.Helper()
	cfg.Obs = obs.NewSink()
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	if shared {
		sh := attachShare(t, ctx, d, w)
		defer sh.Close()
	}
	st, err := RunCtx(ctx, d, w, 0)
	d.FlushObs()
	out := outcome{Stats: st, Clock: d.Clock(),
		kernelFrames:       cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "kernel")).Value(),
		perOpFrames:        cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "perop")).Value(),
		mixedFrames:        cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "mixed")).Value(),
		kernelRequests:     cfg.Obs.Counter(obs.Name("mnemo_client_requests_total", "path", "kernel")).Value(),
		perOpRequests:      cfg.Obs.Counter(obs.Name("mnemo_client_requests_total", "path", "perop")).Value(),
		structuralReprices: cfg.Obs.Counter(obs.Name("mnemo_server_reprice_total", "cause", "structural")).Value(),
		streamRequests:     cfg.Obs.Counter("mnemo_server_llc_stream_requests_total").Value(),
	}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

func TestReplayEquivalenceMatrix(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for traceName, w := range matrixTraces() {
		backings := []struct {
			name string
			w    *ycsb.Workload
		}{
			{"inmem", w},
			{"packed", packedTwin(w)},
			{"streamed", streamedTwin(t, w)},
		}
		p := halfFast(w)
		nFrames := int64((len(w.Ops) + replayBlockOps - 1) / replayBlockOps)
		if traceName == "dense" {
			delFrames, deadReads, reinserts, deadDeletes := denseShape(w)
			if delFrames != int(nFrames) || deadReads == 0 || reinserts == 0 || deadDeletes == 0 {
				t.Fatalf("dense trace: %d of %d frames carry a Delete, %d dead reads, %d re-inserts, %d dead Deletes",
					delFrames, nFrames, deadReads, reinserts, deadDeletes)
			}
		}

		for _, e := range goldenEngines {
			for _, adaptive := range []bool{false, true} {
				base := server.DefaultConfig(e, 7)
				base.Machine.LLCBytes = matrixLLCBytes
				mode := "static"
				if adaptive {
					mode = "adaptive"
					base.Adaptive = greedySource{}
					base.EpochOps = replayBlockOps
					base.MigrationCostPerByte = 0.5
				}
				for cut, ctx := range map[string]context.Context{"none": context.Background(), "cancelled": cancelled} {
					label := fmt.Sprintf("%s/%v/%s/%s", traceName, e, mode, cut)
					ref := runCell(t, ctx, perOpReference(base), w, p, false)
					requireCutFired(t, label, cut, ref)

					for _, b := range backings {
						for _, cellMode := range []struct{ perOp, shared bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
							perOp := cellMode.perOp
							c := base
							c.DisableBatchReplay = perOp
							got := runCell(t, ctx, c, b.w, p, cellMode.shared)
							cell := fmt.Sprintf("%s/%s/perop=%t/shared=%t", label, b.name, perOp, cellMode.shared)
							if !reflect.DeepEqual(got.comparable(), ref.comparable()) {
								t.Fatalf("%s diverged from the in-memory per-op reference:\n  got: %+v\n  ref: %+v", cell, got, ref)
							}
							if perOp && got.kernelFrames != 0 {
								t.Fatalf("%s: %d frames took the kernel under DisableBatchReplay", cell, got.kernelFrames)
							}
							if !cellMode.shared && got.streamRequests != 0 {
								t.Fatalf("%s: %d requests priced from an LLC stream without a share", cell, got.streamRequests)
							}
							if cut != "none" {
								continue
							}
							if cellMode.shared {
								requireStreamUse(t, cell, got)
							}
							if perOp {
								continue
							}
							// The kernel column of an uncut run: which frames and
							// requests went where.
							if got.kernelFrames+got.perOpFrames+got.mixedFrames != nFrames {
								t.Fatalf("%s: %d kernel + %d per-op + %d mixed frames, want %d in all", cell, got.kernelFrames, got.perOpFrames, got.mixedFrames, nFrames)
							}
							if got.kernelRequests+got.perOpRequests != int64(len(w.Ops)) {
								t.Fatalf("%s: %d kernel + %d per-op requests, want %d in all", cell, got.kernelRequests, got.perOpRequests, len(w.Ops))
							}
							switch {
							case traceName == "readwrite":
								if got.kernelFrames != nFrames {
									t.Fatalf("%s: %d of %d read/write frames took the kernel", cell, got.kernelFrames, nFrames)
								}
							case got.perOpFrames+got.mixedFrames < 2:
								t.Fatalf("%s: %d frames went per-op and %d mixed, want the Delete-bearing ones", cell, got.perOpFrames, got.mixedFrames)
							case e == server.DynamoLike:
								// treekv's journal is unbounded, so a frame with a
								// Delete goes per-op from there on; and it stops
								// promising static traces once a delete leaves a
								// full node behind, so its later frames may all
								// go per-op.
							case traceName == "dense":
								// Every frame carries Deletes; the runs between
								// them take the kernel.
								if got.mixedFrames != nFrames || got.kernelRequests < int64(len(w.Ops))/2 {
									t.Fatalf("%s: %d of %d frames mixed, %d of %d requests on the kernel", cell, got.mixedFrames, nFrames, got.kernelRequests, len(w.Ops))
								}
							case got.kernelFrames < 2:
								t.Fatalf("%s: %d frames took the kernel, want frames 0 and 2 at least", cell, got.kernelFrames)
							case !adaptive && got.structuralReprices == 0:
								// (An adaptive run's boundary migration re-prices
								// for its own cause before frame 2 can.)
								t.Fatalf("%s: frame 2 took the kernel without a structural re-price", cell)
							}
						}
					}
				}
			}
		}
	}
}

// structuralTrace is a five-frame trace of the structural requests the
// shared stream must walk like any other: frame 0 deletes a record,
// reads it twice while it is dead — the second read hits the 0-byte
// entry the first left — and re-inserts it; frame 2 deletes another
// record for good, which frame 3 reads twice.
func structuralTrace() *ycsb.Workload {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "structural", Keys: 500, Requests: 5 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeTrendingPreview, Seed: 5,
	})
	kill := func(at int, reinsert bool) {
		k := w.Ops[at].Key
		w.Ops[at].Kind = kvstore.Delete
		w.Ops[at+1] = ycsb.Op{Key: k, Kind: kvstore.Read}
		w.Ops[at+2] = ycsb.Op{Key: k, Kind: kvstore.Read}
		if reinsert {
			w.Ops[at+3] = ycsb.Op{Key: k, Kind: kvstore.Write}
		}
	}
	kill(40, true)
	kill(2*replayBlockOps+100, false)
	k := w.Ops[2*replayBlockOps+100].Key
	w.Ops[3*replayBlockOps+7] = ycsb.Op{Key: k, Kind: kvstore.Read}
	w.Ops[3*replayBlockOps+9] = ycsb.Op{Key: k, Kind: kvstore.Read}
	return w
}

// TestSharedLLCHandOverCells runs the shared-stream cells the two matrix
// traces do not reach — the points where a shared run once handed the
// LLC over to a live cache, and now walks on: a Delete in frame 0, a
// Delete mid-trace, a re-insert and a dead record read twice
// (structuralTrace) on every engine; MemcachedLike with records over
// 1 MB, which slabkv refuses; and a batch table dropped at the first
// epoch boundary. Each shared run, kernel-first or per-op by config,
// must equal the per-op reference and price every request from the
// stream.
func TestSharedLLCHandOverCells(t *testing.T) {
	w, big := structuralTrace(), structuralTrace()
	for _, op := range big.Ops[:2] {
		big.Dataset.Records[op.Key].Size = 3 << 19
	}
	type cell struct {
		name string
		e    server.Engine
		w    *ycsb.Workload
	}
	cells := []cell{{"memcachedlike/over-1MB", server.MemcachedLike, big}}
	for _, e := range goldenEngines {
		cells = append(cells, cell{fmt.Sprintf("%v/structural", e), e, w})
	}
	for _, c := range cells {
		cfg := server.DefaultConfig(c.e, 42)
		cfg.Machine.LLCBytes = matrixLLCBytes
		ref := runCell(t, context.Background(), perOpReference(cfg), c.w, halfFast(c.w), false)
		if ref.Err != "" {
			t.Fatalf("%s: reference failed: %s", c.name, ref.Err)
		}
		for _, perOp := range []bool{false, true} {
			cfg.DisableBatchReplay = perOp
			got := runCell(t, context.Background(), cfg, c.w, halfFast(c.w), true)
			label := fmt.Sprintf("%s/perop=%t/shared=true", c.name, perOp)
			if !reflect.DeepEqual(got.comparable(), ref.comparable()) {
				t.Fatalf("%s diverged from the per-op reference:\n  got: %+v\n  ref: %+v", label, got, ref)
			}
			requireStreamUse(t, label, got)
		}
	}

	aw := adaptiveTestWorkload(0.9)
	p := halfFast(aw)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Machine.LLCBytes = matrixLLCBytes
	cfg.EpochOps = replayBlockOps
	cfg.MigrationCostPerByte = 0.5
	src := &dropTableObserver{}
	cfg.Adaptive = src
	cfg.Obs = obs.NewSink()
	d := server.NewDeployment(cfg)
	if err := d.Load(aw.Dataset, p); err != nil {
		t.Fatal(err)
	}
	src.d = d
	sh := attachShare(t, context.Background(), d, aw)
	got, err := RunCtx(context.Background(), d, aw, 0)
	sh.Close()
	if err != nil {
		t.Fatal(err)
	}
	d.FlushObs()
	frames := func(path string) int64 {
		return cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", path)).Value()
	}
	if n := cfg.Obs.Counter("mnemo_server_llc_stream_requests_total").Value(); n != int64(len(aw.Ops)) || frames("kernel") != 1 || frames("perop") == 0 {
		t.Fatalf("table dropped after frame 0: %d stream requests, %d kernel and %d per-op frames; want all %d requests from the stream, frame 0 alone on the kernel",
			n, frames("kernel"), frames("perop"), len(aw.Ops))
	}
	refCfg := perOpReference(cfg)
	refCfg.Adaptive, refCfg.Obs = greedySource{}, nil
	ref, err := measureRun(refCfg, aw, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("table dropped mid-run diverged from the per-op reference:\n  shared: %+v\n  per-op: %+v", got, ref)
	}
}

// requireStreamUse pins that an uncut shared cell priced every request
// from the stream, whichever path served it.
func requireStreamUse(t *testing.T, cell string, got outcome) {
	t.Helper()
	if total := int64(got.Stats.Requests); total == 0 || got.streamRequests != total {
		t.Fatalf("%s: %d of %d requests priced from the stream, want all", cell, got.streamRequests, total)
	}
}

// requireCutFired guards the matrix against vacuous cells: the
// reference of each cut-off column must have ended the way the column
// says.
func requireCutFired(t *testing.T, label, cut string, ref outcome) {
	t.Helper()
	switch cut {
	case "none":
		if ref.Err != "" {
			t.Fatalf("%s: reference failed: %s", label, ref.Err)
		}
	case "cancelled":
		if ref.Err != context.Canceled.Error() || ref.Clock != 0 {
			t.Fatalf("%s: reference served requests under a cancelled context: %q, clock %v", label, ref.Err, ref.Clock)
		}
	}
}

// TestReplayMatrixShardedPackedSubs: a cluster forced per-op replays
// packed-only sub-traces (shard.Split without ops) exactly like
// sub-traces with Ops materialized — the combination the old per-op
// loop rejected.
func TestReplayMatrixShardedPackedSubs(t *testing.T) {
	for traceName, w := range matrixTraces() {
		withOps, err := shard.Split(w, 3, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := shard.Split(w, 3, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := perOpReference(server.DefaultConfig(server.RedisLike, 42))
		for s := range withOps.Subs {
			if packed.Subs[s].W.Ops != nil || withOps.Subs[s].W.Ops == nil {
				t.Fatalf("%s shard %d: split did not produce a packed-only and an Ops-backed sub", traceName, s)
			}
			want := runCell(t, context.Background(), cfg, withOps.Subs[s].W, server.AllSlow(), false)
			got := runCell(t, context.Background(), cfg, packed.Subs[s].W, server.AllSlow(), false)
			if want.Err != "" || !reflect.DeepEqual(got.comparable(), want.comparable()) {
				t.Fatalf("%s shard %d: packed-only sub diverged:\n  got:  %+v\n  want: %+v", traceName, s, got, want)
			}
		}
		// And end to end through the cluster path.
		cfg.Shards = 3
		sharded, err := measureRun(cfg, w, server.AllSlow())
		if err != nil {
			t.Fatalf("%s: sharded per-op run: %v", traceName, err)
		}
		kernel := cfg
		kernel.DisableBatchReplay = false
		viaKernel, err := measureRun(kernel, w, server.AllSlow())
		if err != nil || !reflect.DeepEqual(sharded, viaKernel) {
			t.Fatalf("%s: sharded per-op and kernel runs diverged (%v):\n  per-op: %+v\n  kernel: %+v", traceName, err, sharded, viaKernel)
		}
	}
}

// TestReplayPerOpFrameThenKernel crosses the hand-over between the two
// accumulator paths on purpose: the first frame carries a Delete, so it
// is mixed — its kernel runs and its per-op Delete and re-insert fold
// into one table, creating the first (kind, size class) histograms
// either way; every later frame goes through the kernel and
// folds into those same histograms, or creates the classes the first
// frame did not reach. The run must equal the all-per-op reference
// exactly.
func TestReplayPerOpFrameThenKernel(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "handover", Keys: 500, Requests: 5 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeTrendingPreview, Seed: 5,
	})
	// Delete a record early in frame 0 and re-insert it right after, so
	// later frames find every record alive and take the kernel.
	del := &w.Ops[40]
	del.Kind = kvstore.Delete
	w.Ops[41] = ycsb.Op{Key: del.Key, Kind: kvstore.Write}

	cfg := server.DefaultConfig(server.RedisLike, 42)
	got := runCell(t, context.Background(), cfg, w, halfFast(w), false)
	want := runCell(t, context.Background(), perOpReference(cfg), w, halfFast(w), false)
	if got.mixedFrames != 1 || got.kernelFrames != 4 {
		t.Fatalf("frames: %d mixed, %d kernel; want the first mixed and the other 4 kernel",
			got.mixedFrames, got.kernelFrames)
	}
	if got.Err != "" || !reflect.DeepEqual(got.comparable(), want.comparable()) {
		t.Fatalf("per-op-then-kernel run diverged from the per-op reference:\n  got:  %+v\n  want: %+v", got, want)
	}
	if len(got.Stats.ReadLatency) < 2 || len(got.Stats.WriteLatency) < 2 {
		t.Fatalf("trace spans too few size classes to exercise the hand-over: %d read, %d write",
			len(got.Stats.ReadLatency), len(got.Stats.WriteLatency))
	}
}

// TestOversizedRecordKeepsKernel: slabkv refuses a record over its
// largest chunk at Load and at every Write, so the record is never live,
// even after a migration copies it. Its Reads take the not-found row and
// its Writes go per-op, while the rest of the cost table stands: the
// kernel serves most requests, and the run equals the per-op reference,
// statically and when epoch migration moves the record.
func TestOversizedRecordKeepsKernel(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	hot := w.Ops[0].Key
	big := &w.Dataset.Records[hot]
	w.Dataset.TotalBytes += 1536<<10 - int64(big.Size)
	big.Size = 1536 << 10 // 1.5 MB, over slabkv.MaxChunk
	p := halfFast(w)
	for _, adaptive := range []bool{false, true} {
		cfg := server.DefaultConfig(server.MemcachedLike, 7)
		if adaptive {
			to := memsim.Fast
			if p.TierOfIndex(hot) == memsim.Fast {
				to = memsim.Slow
			}
			cfg.Adaptive = moveSource{server.Move{Index: hot, To: to}}
			cfg.EpochOps = replayBlockOps
		}
		got := runCell(t, context.Background(), cfg, w, p, false)
		want := runCell(t, context.Background(), perOpReference(cfg), w, p, false)
		t.Logf("adaptive=%t: %d moves; frames %d kernel, %d mixed, %d per-op; requests %d kernel, %d per-op", adaptive,
			got.Stats.MovesApplied, got.kernelFrames, got.mixedFrames, got.perOpFrames, got.kernelRequests, got.perOpRequests)
		if adaptive && got.Stats.MovesApplied != 1 {
			t.Fatalf("%d moves applied, want the oversized record's one", got.Stats.MovesApplied)
		}
		if got.kernelRequests <= got.perOpRequests {
			t.Fatalf("adaptive=%t: %d kernel and %d per-op requests, want the kernel to serve most", adaptive, got.kernelRequests, got.perOpRequests)
		}
		if got.Err != "" || !reflect.DeepEqual(got.comparable(), want.comparable()) {
			t.Fatalf("adaptive=%t: run diverged from the per-op reference:\n  got:  %+v\n  want: %+v", adaptive, got, want)
		}
	}
}

// moveSource is an adaptive policy that asks for the same move at every
// epoch boundary; once applied, the move is a no-op.
type moveSource struct{ m server.Move }

func (s moveSource) Begin(*ycsb.Workload) (server.EpochObserver, error) { return s, nil }

func (s moveSource) Observe(server.EpochStats) []server.Move { return []server.Move{s.m} }

// TestReplayStreamReuse: a streamed read/write trace, served by the
// kernel alone, aggregates over repetitions bit-identically to the
// per-op reference on the materialized trace.
func TestReplayStreamReuse(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	tw := streamedTwin(t, w)
	cfg := server.DefaultConfig(server.MemcachedLike, 31)
	got, err := ExecuteMeanWorkers(cfg, tw, server.AllFast(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteMeanWorkers(perOpReference(cfg), w, server.AllFast(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed aggregate diverged:\n  got:  %+v\n  want: %+v", got, want)
	}
}

// brokenStream is a trace stream that declares more requests than it
// delivers, fails to decode after a number of frames, or fails to open.
type brokenStream struct {
	w         *ycsb.Workload
	declared  int
	failAfter int // frames before Next fails; < 0 never
	openErr   error
}

func (s brokenStream) Requests() int { return s.declared }

func (s brokenStream) Frames() (ycsb.FrameIter, error) {
	if s.openErr != nil {
		return nil, s.openErr
	}
	frames, err := s.w.Frames()
	return &brokenIter{frames: frames, failAfter: s.failAfter}, err
}

type brokenIter struct {
	frames    ycsb.Frames
	failAfter int
}

func (it *brokenIter) Next() ([]uint32, []uint8, bool, error) {
	if it.failAfter == 0 {
		return nil, nil, false, errors.New("bad frame checksum")
	}
	it.failAfter--
	return it.frames.Next()
}

type rejectingSource struct{}

func (rejectingSource) Begin(*ycsb.Workload) (server.EpochObserver, error) {
	return nil, errors.New("needs a materialized trace")
}

// TestReplayFrameSourceErrors: what can go wrong with the frame source
// itself surfaces as the run's error, each from its one place in the
// loop, with the requests before it served.
func TestReplayFrameSourceErrors(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	streamed := func(s brokenStream) *ycsb.Workload {
		s.w = w
		return &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: s}
	}
	adaptive := server.DefaultConfig(server.RedisLike, 7)
	adaptive.Adaptive, adaptive.EpochOps = rejectingSource{}, replayBlockOps
	for name, tc := range map[string]struct {
		cfg      server.Config
		w        *ycsb.Workload
		wantErr  string
		wantDone bool // requests were served before the error
	}{
		"open":      {server.DefaultConfig(server.RedisLike, 7), streamed(brokenStream{declared: len(w.Ops), failAfter: -1, openErr: errors.New("no such file")}), "client: opening trace: no such file", false},
		"decode":    {server.DefaultConfig(server.RedisLike, 7), streamed(brokenStream{declared: len(w.Ops), failAfter: 2}), fmt.Sprintf("client: decoding trace frame at request %d: bad frame checksum", 2*replayBlockOps), true},
		"truncated": {server.DefaultConfig(server.RedisLike, 7), streamed(brokenStream{declared: len(w.Ops) + 1, failAfter: -1}), fmt.Sprintf("client: trace stream ended after %d of %d requests", len(w.Ops), len(w.Ops)+1), true},
		"rejected":  {adaptive, w, "client: adaptive policy rejected workload: needs a materialized trace", false},
	} {
		got := runCell(t, context.Background(), tc.cfg, tc.w, halfFast(w), false)
		if got.Err != tc.wantErr {
			t.Errorf("%s: error %q, want %q", name, got.Err, tc.wantErr)
		}
		if (got.Clock > 0) != tc.wantDone {
			t.Errorf("%s: clock %v at the error, served-before-error want %t", name, got.Clock, tc.wantDone)
		}
	}
}
