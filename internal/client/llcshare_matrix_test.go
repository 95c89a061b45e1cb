package client_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/obs"
	"mnemo/internal/registry"
	"mnemo/internal/server"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// TestReplayEquivalenceMatrixShared holds the shared LLC stream to the
// private walker at the shape the measuring calls use it: a Measure leg
// of Runs: 3 repetitions against the same repetitions replayed by
// RunCtx on freshly loaded deployments (RunPrivate), over {read/write,
// capture-shaped Delete-dense} × {in-memory, .mtrc} × {unsharded, 4
// shards} × {static, adaptive-freq} × the three engines. Every cell's
// aggregate must equal the private walker's bit for bit, and every
// request of the call must have been priced from a stream; a
// Delete-dense cell must also equal its DisableBatchReplay run, after
// serving requests both ways.
func TestReplayEquivalenceMatrixShared(t *testing.T) {
	gen := func() *ycsb.Workload {
		return ycsb.MustGenerate(ycsb.Spec{
			Name: "sharedaxis", Keys: 600, Requests: 6*server.ReplayBlockOps + 321,
			Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
			ReadRatio: 0.9, Sizes: ycsb.SizeTrendingPreview, Seed: 23,
		})
	}
	w := gen()
	var dataset int64
	for _, r := range w.Dataset.Records {
		dataset += int64(r.Size)
	}
	backing := func(name string, w *ycsb.Workload) *ycsb.Workload {
		path := filepath.Join(t.TempDir(), name+".mtrc")
		if err := trace.WriteWorkload(w, path); err != nil {
			t.Fatal(err)
		}
		tw, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tw.Spec = w.Spec
		return tw
	}
	dw := client.DeleteDense(gen())
	pol, err := registry.New("adaptive-freq", 1)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := pol.(server.EpochSource)
	if !ok {
		t.Fatal("adaptive-freq is not an epoch source")
	}
	fast := make([]int, 0, len(w.Dataset.Records)/3)
	for i := 0; i < len(w.Dataset.Records); i += 3 {
		fast = append(fast, i)
	}
	p := server.FastIndices(fast, len(w.Dataset.Records))

	for _, b := range []struct {
		name  string
		w     *ycsb.Workload
		dense bool
	}{{"inmem", w, false}, {"mtrc", backing("shared", w), false}, {"dense/inmem", dw, true}, {"dense/mtrc", backing("dense", dw), true}} {
		for _, shards := range []int{0, 4} {
			for _, adaptive := range []bool{false, true} {
				for _, e := range server.Engines() {
					cfg := server.DefaultConfig(e, 17)
					// A tenth of the (shard's) dataset, half its hot set:
					// hits and misses mix in every block.
					cfg.Machine.LLCBytes = dataset / 10 / int64(max(1, shards))
					cfg.Shards = shards
					if adaptive {
						cfg.Adaptive, cfg.EpochOps, cfg.MigrationCostPerByte = src, server.ReplayBlockOps, 0.5
					}
					cell := fmt.Sprintf("%s/shards=%d/adaptive=%t/%v", b.name, shards, adaptive, e)
					want, errW := client.RunPrivate(context.Background(), cfg, b.w, p, 3)
					sink := obs.NewSink()
					cfg.Obs = sink
					got, errG := client.MeasureOne(context.Background(), cfg, b.w, p, 3, 0)
					if errW != nil || errG != nil {
						t.Fatalf("%s: private err %v, shared err %v", cell, errW, errG)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: shared aggregate diverged from the private walker's:\n  shared:  %+v\n  private: %+v", cell, got, want)
					}
					if got.LLCHitRate < 0.1 || got.LLCHitRate > 0.9 {
						t.Fatalf("%s: LLC hit rate %v: the cell does not mix hits with misses", cell, got.LLCHitRate)
					}
					if n := sink.Counter("mnemo_server_llc_stream_requests_total").Value(); n != 3*int64(b.w.RequestCount()) {
						t.Fatalf("%s: %d of 3 × %d requests priced from a stream, want all", cell, n, b.w.RequestCount())
					}
					if !b.dense {
						continue
					}
					perOp := cfg
					perOp.DisableBatchReplay, perOp.Obs = true, nil
					ref, err := client.RunPrivate(context.Background(), perOp, b.w, p, 3)
					if err != nil || !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: diverged from DisableBatchReplay (%v):\n  kernel: %+v\n  per-op: %+v", cell, err, got, ref)
					}
					kernel := sink.Counter(obs.Name("mnemo_client_requests_total", "path", "kernel")).Value()
					perOpReqs := sink.Counter(obs.Name("mnemo_client_requests_total", "path", "perop")).Value()
					if kernel+perOpReqs != 3*int64(b.w.RequestCount()) || perOpReqs == 0 || (kernel == 0) != (e == server.DynamoLike) {
						t.Fatalf("%s: %d kernel + %d per-op requests over 3 runs of %d", cell, kernel, perOpReqs, b.w.RequestCount())
					}
				}
			}
		}
	}
}
