package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// The replay equivalence matrix. There is one replay loop
// (replayFrames), so every way of feeding it — trace backing, static or
// adaptive, kernel or per-op, private LLC walker or a shared LLC stream — and
// every way of cutting it off must produce the outcome of one
// reference: the in-memory trace replayed with DisableBatchReplay.
// "Outcome" is RunStats (EpochTraffic included) under
// reflect.DeepEqual, the error text, and the deployment's clock when
// the run ended.

// matrixLLCBytes is the matrix's LLC: about half the 500 × 1 KB
// dataset, so the hot set stays resident while the cold tail churns and
// every block mixes hits with misses.
const matrixLLCBytes = 256 << 10

// matrixTraces are the two trace shapes: read/write-only, and the same
// length with Deletes confined to two of its five frames. Frame 1
// re-inserts every record it deletes, so frames 0 and 2 can take the
// kernel around it; frame 3 leaves its records dead for frame 4 to run
// into.
func matrixTraces() map[string]*ycsb.Workload {
	dels := adaptiveTestWorkload(0.9)
	for i := 40; i < replayBlockOps; i += 611 {
		del := &dels.Ops[replayBlockOps+i]
		del.Kind = kvstore.Delete
		dels.Ops[replayBlockOps+i+1] = ycsb.Op{Key: del.Key, Kind: kvstore.Write}
		dels.Ops[3*replayBlockOps+i].Kind = kvstore.Delete
	}
	return map[string]*ycsb.Workload{"readwrite": adaptiveTestWorkload(0.9), "deletes": dels}
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

	kernelFrames, perOpFrames int64
	structuralReprices        int64
	streamRequests            int64
}

func (o outcome) comparable() outcome {
	o.kernelFrames, o.perOpFrames, o.structuralReprices = 0, 0, 0
	o.streamRequests = 0
	return o
}

func runCell(t *testing.T, ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) outcome {
	t.Helper()
	return runCellBudget(t, ctx, cfg, w, p, 0)
}

// runCellBudget is runCell under a RunCtx simulated-time budget.
func runCellBudget(t *testing.T, ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, budget simclock.Duration) outcome {
	t.Helper()
	cfg.Obs = obs.NewSink()
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(ctx, d, w, budget)
	d.FlushObs()
	out := outcome{Stats: st, Clock: d.Clock(),
		kernelFrames:       cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "kernel")).Value(),
		perOpFrames:        cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "perop")).Value(),
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
				full := runCell(t, context.Background(), perOpReference(base), w, p)
				if full.Err != "" {
					t.Fatalf("%s/%v/%s: uncut reference failed: %s", traceName, e, mode, full.Err)
				}

				type cutSpec struct {
					budget       simclock.Duration
					costPerByte  float64 // overrides MigrationCostPerByte when > 0
					ctxCancelled bool
				}
				cuts := map[string]cutSpec{
					"none":      {},
					"timeout":   {budget: full.Stats.Runtime / 2},
					"cancelled": {ctxCancelled: true},
				}
				if adaptive {
					// The first boundary's copy traffic alone blows a budget
					// the requests themselves would have met.
					cuts["migration-timeout"] = cutSpec{budget: full.Stats.Runtime, costPerByte: 1e6}
				}

				for cut, spec := range cuts {
					cfg := base
					if spec.costPerByte > 0 {
						cfg.MigrationCostPerByte = spec.costPerByte
					}
					ctx := context.Background()
					if spec.ctxCancelled {
						ctx = cancelled
					}
					label := fmt.Sprintf("%s/%v/%s/%s", traceName, e, mode, cut)
					ref := runCellBudget(t, ctx, perOpReference(cfg), w, p, spec.budget)
					requireCutFired(t, label, cut, ref)

					for _, b := range backings {
						for _, cellMode := range []struct{ perOp, shared bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
							perOp := cellMode.perOp
							c := cfg
							c.DisableBatchReplay = perOp
							cellCtx, release := ctx, func() {}
							if cellMode.shared {
								cellCtx, release = ShareLLC(ctx)
							}
							got := runCellBudget(t, cellCtx, c, b.w, p, spec.budget)
							release()
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
							// The kernel column of an uncut run: which frames went where.
							if got.kernelFrames+got.perOpFrames != nFrames {
								t.Fatalf("%s: %d kernel + %d per-op frames, want %d in all", cell, got.kernelFrames, got.perOpFrames, nFrames)
							}
							switch {
							case traceName == "readwrite":
								if got.perOpFrames != 0 {
									t.Fatalf("%s: %d read/write frames went per-op", cell, got.perOpFrames)
								}
							case got.perOpFrames < 2:
								t.Fatalf("%s: %d frames went per-op, want the two Delete-bearing ones at least", cell, got.perOpFrames)
							case e == server.DynamoLike:
								// treekv stops promising static traces once a
								// delete leaves a full node behind; its later
								// frames may all go per-op.
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
		ref := runCell(t, context.Background(), perOpReference(cfg), c.w, halfFast(c.w))
		if ref.Err != "" {
			t.Fatalf("%s: reference failed: %s", c.name, ref.Err)
		}
		for _, perOp := range []bool{false, true} {
			cfg.DisableBatchReplay = perOp
			got := sharedCell(t, cfg, c.w, halfFast(c.w))
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
	ctx, release := ShareLLC(context.Background())
	got, err := RunCtx(ctx, d, aw, 0)
	release()
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
	ref, err := Execute(refCfg, aw, p)
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
	case "timeout":
		var served, total int
		if !strings.Contains(ref.Err, ErrRunTimeout.Error()) {
			t.Fatalf("%s: reference did not time out: %q", label, ref.Err)
		}
		if _, err := fmt.Sscanf(ref.Err[strings.Index(ref.Err, "after "):], "after %d/%d requests", &served, &total); err != nil || served%replayBlockOps == 0 {
			t.Fatalf("%s: reference not cut mid-frame: %q", label, ref.Err)
		}
	case "migration-timeout":
		if !strings.Contains(ref.Err, fmt.Sprintf("after %d/", replayBlockOps)) {
			t.Fatalf("%s: reference not cut by the first boundary's migration: %q", label, ref.Err)
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
			want := runCell(t, context.Background(), cfg, withOps.Subs[s].W, server.AllSlow())
			got := runCell(t, context.Background(), cfg, packed.Subs[s].W, server.AllSlow())
			if want.Err != "" || !reflect.DeepEqual(got.comparable(), want.comparable()) {
				t.Fatalf("%s shard %d: packed-only sub diverged:\n  got:  %+v\n  want: %+v", traceName, s, got, want)
			}
		}
		// And end to end through the cluster path.
		cfg.Shards = 3
		sharded, err := Execute(cfg, w, server.AllSlow())
		if err != nil {
			t.Fatalf("%s: sharded per-op run: %v", traceName, err)
		}
		kernel := cfg
		kernel.DisableBatchReplay = false
		viaKernel, err := Execute(kernel, w, server.AllSlow())
		if err != nil || !reflect.DeepEqual(sharded, viaKernel) {
			t.Fatalf("%s: sharded per-op and kernel runs diverged (%v):\n  per-op: %+v\n  kernel: %+v", traceName, err, sharded, viaKernel)
		}
	}
}

// TestReplayPerOpFrameThenKernel crosses the hand-over between the two
// accumulator paths on purpose: the first frame carries a Delete, so it
// is served per-op and creates the first (kind, size class) histograms
// through observe; every later frame goes through the kernel and folds
// into those same histograms with foldBlock, or creates the classes the
// first frame did not reach. The run must equal the all-per-op reference
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
	got := runCell(t, context.Background(), cfg, w, halfFast(w))
	want := runCell(t, context.Background(), perOpReference(cfg), w, halfFast(w))
	if got.perOpFrames != 1 || got.kernelFrames != 4 {
		t.Fatalf("frames: %d per-op, %d kernel; want the first per-op and the other 4 kernel",
			got.perOpFrames, got.kernelFrames)
	}
	if got.Err != "" || !reflect.DeepEqual(got.comparable(), want.comparable()) {
		t.Fatalf("per-op-then-kernel run diverged from the per-op reference:\n  got:  %+v\n  want: %+v", got, want)
	}
	if len(got.Stats.ReadLatency) < 2 || len(got.Stats.WriteLatency) < 2 {
		t.Fatalf("trace spans too few size classes to exercise the hand-over: %d read, %d write",
			len(got.Stats.ReadLatency), len(got.Stats.WriteLatency))
	}
}

// TestReplayStreamReuse pins the reuse rule on the backing it newly
// covers: a streamed read/write trace is served by the kernel alone, so
// its deployment is kept and rewound across repetitions, bit-identically
// to rebuilding per repetition.
func TestReplayStreamReuse(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	tw := streamedTwin(t, w)
	cfg := server.DefaultConfig(server.MemcachedLike, 31)
	_, d, err := executeFresh(context.Background(), cfg, tw, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	if !canReuse(d) {
		t.Fatal("kernel-only streamed run not offered for snapshot reuse")
	}
	got, err := ExecuteMeanWorkers(cfg, tw, server.AllFast(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteMeanWorkers(perOpReference(cfg), w, server.AllFast(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused streamed aggregate diverged:\n  got:  %+v\n  want: %+v", got, want)
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
		got := runCell(t, context.Background(), tc.cfg, tc.w, halfFast(w))
		if got.Err != tc.wantErr {
			t.Errorf("%s: error %q, want %q", name, got.Err, tc.wantErr)
		}
		if (got.Clock > 0) != tc.wantDone {
			t.Errorf("%s: clock %v at the error, served-before-error want %t", name, got.Clock, tc.wantDone)
		}
	}
}
