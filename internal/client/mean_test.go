package client

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// meanWorkload is small enough that tests with many repetitions stay
// fast under -race.
func meanWorkload() *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "mean", Keys: 128, Requests: 2000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 17,
	})
}

func TestExecuteCtxHealthyRunWithinBudget(t *testing.T) {
	w := meanWorkload()
	d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 3))
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	st, err := RunCtx(context.Background(), d, w, 3600*simclock.Second) // generous simulated budget
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != len(w.Ops) {
		t.Fatalf("requests %d, want %d", st.Requests, len(w.Ops))
	}
}

func TestExecuteCtxCancelled(t *testing.T) {
	w := meanWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteCtx(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteMeanCtxSurfacesRepetitionError: a repetition that fails
// fails the aggregate with that repetition's error, at every worker
// count and on both the single and the sharded path.
func TestExecuteMeanCtxSurfacesRepetitionError(t *testing.T) {
	w := meanWorkload()
	for _, shards := range []int{0, 2} {
		cfg := server.DefaultConfig(server.RedisLike, 11)
		cfg.Machine.FastCapacity = 512 // too small for even one record
		cfg.Shards = shards
		for _, workers := range []int{1, 3} {
			_, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 4, workers)
			if !errors.Is(err, memsim.ErrNoCapacity) {
				t.Fatalf("shards=%d workers=%d: err = %v, want memsim.ErrNoCapacity", shards, workers, err)
			}
		}
	}
}

func TestExecuteMeanCtxDeterministicAcrossWorkers(t *testing.T) {
	w := meanWorkload()
	cfg := server.DefaultConfig(server.DynamoLike, 53)
	var ref RunStats
	for i, workers := range []int{1, 2, 4, 7} {
		st, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 6, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = st
			continue
		}
		if !reflect.DeepEqual(ref, st) {
			t.Fatalf("workers=%d diverged from serial:\n%+v\nvs\n%+v", workers, ref, st)
		}
	}
}

func TestExecuteMeanCtxCancellation(t *testing.T) {
	w := meanWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteMeanCtx(ctx, server.DefaultConfig(server.RedisLike, 1), w, server.AllFast(), 8, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteMeanCtxRejectsBadArgs(t *testing.T) {
	w := meanWorkload()
	cfg := server.DefaultConfig(server.RedisLike, 1)
	if _, err := ExecuteMeanCtx(context.Background(), cfg, w, server.AllFast(), 0, 1); err == nil {
		t.Fatal("runs=0 accepted")
	}
}
