package client

// Determinism and allocation guarantees of the replay fast path: parallel
// ExecuteMean must be bit-identical to serial on every engine, and the
// steady-state replay loop must not allocate.

import (
	"reflect"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// TestExecuteMeanWorkersBitIdentical is the determinism contract of the
// parallel measurement path: every repetition owns its deployment and
// noise stream, and results fold in run-index order, so the aggregate is
// the same float for float no matter how many workers execute it.
func TestExecuteMeanWorkersBitIdentical(t *testing.T) {
	w := testWorkload(0.9)
	for _, e := range server.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			cfg := server.DefaultConfig(e, 17)
			serial, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
			deflt, err := ExecuteMean(cfg, w, server.AllFast(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, deflt) {
				t.Fatal("ExecuteMean diverged from the serial reference")
			}
		})
	}
}

// TestReplaySteadyStateZeroAllocs pins the allocation count of the
// replay loop's per-op path at zero. The dataset (512 × 1 KB) fits the 12 MB LLC, so
// after a warmup pass every request is a cache hit against warm
// accumulators — any allocation the loop still performs is per-op
// overhead that would show up millions of times at full scale.
func TestReplaySteadyStateZeroAllocs(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "alloc", Keys: 512, Requests: 4096,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 1.0, Sizes: ycsb.SizeFixed1KB, Seed: 9,
	})
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.NoiseSigma = 0 // keep the latency set closed across passes
	cfg.DisableBatchReplay = true
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocReplay(t, d, w)
}
