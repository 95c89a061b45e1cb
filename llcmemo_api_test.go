package mnemo

import (
	"context"
	"reflect"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/obs"
)

// TestLLCMemoOneWalkPerTrace: Profile, then MeasureAdaptive, then
// ValidateWorkers on one workload walk the LLC once per trace — once
// unsharded, once per shard sub-trace with Shards 4 — and the two later
// calls read every stream from the workload's memo
// (mnemo_server_llc_streams_total{source}). Each call returns what it
// returns on a fresh copy of the workload.
func TestLLCMemoOneWalkPerTrace(t *testing.T) {
	ctx := context.Background()
	spec := WorkloadSpec{
		Name: "llc_memo", Keys: 2000, Requests: 8 * 4096,
		Dist:      DistSpec{Kind: HotSetDrift, HotSetFraction: 0.1, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: SizeThumbnail, Seed: 13,
	}
	generate := func() *Workload {
		w, err := GenerateWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, shards := range []int{0, 4} {
		sink := NewSink()
		opts := Options{
			Store: DynamoLike, Seed: 13, SLO: 0.05, Runs: 2, Shards: shards, Obs: sink,
			Policy: "adaptive-freq", EpochOps: 4096, MigrationCostPerByte: 0.5,
		}
		bare := opts
		bare.Obs = nil
		cfg, _, err := opts.coreConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		bareCfg, _, err := bare.coreConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		traces := int64(max(shards, 1))
		requireStreams := func(call string, wantMemo int64) {
			t.Helper()
			walk := sink.Counter(obs.Name("mnemo_server_llc_streams_total", "source", "walk")).Value()
			memo := sink.Counter(obs.Name("mnemo_server_llc_streams_total", "source", "memo")).Value()
			if walk != traces || memo != wantMemo {
				t.Fatalf("shards=%d, after %s: streams walk=%d memo=%d, want %d and %d", shards, call, walk, memo, traces, wantMemo)
			}
		}

		w := generate()
		rep, err := Profile(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireStreams("Profile", 0)
		if want, err := Profile(generate(), bare); err != nil || !reflect.DeepEqual(rep, want) {
			t.Fatalf("shards=%d: Profile differs from a fresh workload's (err %v)", shards, err)
		}

		cmp, err := MeasureAdaptive(ctx, w, rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireStreams("MeasureAdaptive", traces)
		if want, err := MeasureAdaptive(ctx, generate(), rep, bare); err != nil || !reflect.DeepEqual(cmp, want) {
			t.Fatalf("shards=%d: MeasureAdaptive differs from a fresh workload's (err %v)", shards, err)
		}

		points, err := core.ValidateWorkers(ctx, cfg, w, rep.Curve, rep.Ordering, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireStreams("ValidateWorkers", 2*traces)
		if want, err := core.ValidateWorkers(ctx, bareCfg, generate(), rep.Curve, rep.Ordering, 4, 0); err != nil || !reflect.DeepEqual(points, want) {
			t.Fatalf("shards=%d: ValidateWorkers differs from a fresh workload's (err %v)", shards, err)
		}
	}
}
