package client_test

import (
	"context"
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
// every repetition serves per-op frames, cannot be rewound, and loads
// afresh.
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
