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
// adaptive, kernel or per-op — and every way of cutting it off must
// produce the outcome of one reference: the in-memory trace replayed
// with DisableBatchReplay. "Outcome" is RunStats (EpochTraffic
// included) under reflect.DeepEqual, the error text, and the
// deployment's clock when the run ended.

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
}

func (o outcome) comparable() outcome {
	o.kernelFrames, o.perOpFrames, o.structuralReprices = 0, 0, 0
	return o
}

func runCell(t *testing.T, ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) outcome {
	t.Helper()
	cfg.Obs = obs.NewSink()
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(ctx, d, w, cfg.RunTimeout)
	d.FlushObs()
	out := outcome{Stats: st, Clock: d.Clock(),
		kernelFrames:       cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "kernel")).Value(),
		perOpFrames:        cfg.Obs.Counter(obs.Name("mnemo_client_frames_total", "path", "perop")).Value(),
		structuralReprices: cfg.Obs.Counter(obs.Name("mnemo_server_reprice_total", "cause", "structural")).Value(),
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
				mode := "static"
				if adaptive {
					mode = "adaptive"
					base.Adaptive = greedySource{}
					base.EpochOps = replayBlockOps
					base.MigrationCostPerByte = 0.5
				}
				full := runCell(t, context.Background(), perOpReference(base), w, p)
				if full.Err != "" {
					t.Fatalf("%s/%v/%s: unfaulted reference failed: %s", traceName, e, mode, full.Err)
				}

				faults := map[string]func(*server.Config){
					"none": func(*server.Config) {},
					"crash": func(c *server.Config) {
						c.Fault = server.FaultSpec{CrashProb: 1, StallWindowOps: len(w.Ops)}
						for ; ; c.Fault.Seed++ {
							if at := server.NewDeployment(*c).CrashOp(); at > 2*replayBlockOps && at%replayBlockOps > 100 {
								return
							}
						}
					},
					"timeout":   func(c *server.Config) { c.RunTimeout = full.Stats.Runtime / 2 },
					"cancelled": func(*server.Config) {},
				}
				if adaptive {
					// The first boundary's copy traffic alone blows a budget
					// the requests themselves would have met.
					faults["migration-timeout"] = func(c *server.Config) {
						c.RunTimeout = full.Stats.Runtime
						c.MigrationCostPerByte = 1e6
					}
				}

				for fault, apply := range faults {
					cfg := base
					apply(&cfg)
					ctx := context.Background()
					if fault == "cancelled" {
						ctx = cancelled
					}
					label := fmt.Sprintf("%s/%v/%s/%s", traceName, e, mode, fault)
					ref := runCell(t, ctx, perOpReference(cfg), w, p)
					requireFaultFired(t, label, fault, ref)

					for _, b := range backings {
						for _, perOp := range []bool{false, true} {
							c := cfg
							c.DisableBatchReplay = perOp
							got := runCell(t, ctx, c, b.w, p)
							cell := fmt.Sprintf("%s/%s/perop=%t", label, b.name, perOp)
							if !reflect.DeepEqual(got.comparable(), ref.comparable()) {
								t.Fatalf("%s diverged from the in-memory per-op reference:\n  got: %+v\n  ref: %+v", cell, got, ref)
							}
							if perOp && got.kernelFrames != 0 {
								t.Fatalf("%s: %d frames took the kernel under DisableBatchReplay", cell, got.kernelFrames)
							}
							if fault != "none" || perOp {
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

// requireFaultFired guards the matrix against vacuous cells: the
// reference of each fault column must have ended the way the column
// says.
func requireFaultFired(t *testing.T, label, fault string, ref outcome) {
	t.Helper()
	switch fault {
	case "none":
		if ref.Err != "" {
			t.Fatalf("%s: reference failed: %s", label, ref.Err)
		}
	case "crash":
		if !strings.Contains(ref.Err, "crash") {
			t.Fatalf("%s: reference did not crash: %q", label, ref.Err)
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
