package client_test

import (
	"context"
	"reflect"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// TestMeasureBaselinesSharesTheWalk pins that the Sensitivity Engine's
// two baselines share one engine walk: a MeasureBaselines call loads a
// deployment and replays the trace through its engine once per
// repetition and shard, not once per leg. The trace is Delete-dense, so
// every repetition serves per-op frames.
func TestMeasureBaselinesSharesTheWalk(t *testing.T) {
	w := client.DeleteDense(ycsb.MustGenerate(ycsb.Spec{
		Name: "walks", Keys: 500, Requests: 3 * server.ReplayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 11,
	}))
	for _, e := range server.Engines() {
		for _, shards := range []int{0, 4} {
			for _, runs := range []int{1, 3} {
				cfg := core.DefaultConfig(e, 7)
				cfg.Runs = runs
				cfg.Server.Shards = shards
				loaded, walked := client.EngineWalks()
				if _, err := core.MeasureBaselines(context.Background(), cfg, w); err != nil {
					t.Fatal(err)
				}
				l, wk := client.EngineWalks()
				want := int64(runs * max(shards, 1))
				if l-loaded != want || wk-walked != want {
					t.Fatalf("%v, shards=%d, runs=%d: %d loads and %d engine walks, want %d of each",
						e, shards, runs, l-loaded, wk-walked, want)
				}
			}
		}
	}
}

// TestMeasureLoadsEveryRepetition: every repetition of a measuring call
// loads its own cluster, on a kernel-served trace too, and the aggregate
// is bit-identical across worker counts.
func TestMeasureLoadsEveryRepetition(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "reps", Keys: 500, Requests: 3 * server.ReplayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeThumbnail, Seed: 12,
	})
	const runs = 3
	for _, shards := range []int{0, 4} {
		cfg := server.DefaultConfig(server.RedisLike, 7)
		cfg.Shards = shards
		slow := cfg
		slow.Seed += 7919
		legs := []client.Leg{{Cfg: cfg, Placement: server.AllFast()}, {Cfg: slow, Placement: server.AllSlow()}}
		var ref []client.RunStats
		for _, workers := range []int{1, 2, 4} {
			loaded, walked := client.EngineWalks()
			sts, err := client.Measure(context.Background(), w, runs, workers, nil, legs)
			if err != nil {
				t.Fatal(err)
			}
			l, wk := client.EngineWalks()
			if want := int64(runs * max(shards, 1)); l-loaded != want || wk-walked != want {
				t.Fatalf("shards=%d, workers=%d: %d loads and %d engine walks, want %d of each",
					shards, workers, l-loaded, wk-walked, want)
			}
			if ref == nil {
				ref = sts
			} else if !reflect.DeepEqual(sts, ref) {
				t.Fatalf("shards=%d: workers=%d diverged from workers=1", shards, workers)
			}
		}
	}
}
