package client

// Determinism and allocation guarantees of the replay fast path: parallel
// ExecuteMean must be bit-identical to serial on every engine, and the
// steady-state replay loop must not allocate.

import (
	"context"
	"reflect"
	"testing"

	"mnemo/internal/obs"
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
// replay loop's per-op path at zero, priced by the private LLC walker
// and by a shared stream. The dataset (512 × 1 KB) fits the 12 MB LLC, so
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
	load := func(cfg server.Config) *server.Deployment {
		d := server.NewDeployment(cfg)
		if err := d.Load(w.Dataset, server.AllFast()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	requireZeroAllocReplay(t, load(cfg), w)

	// A per-op run cannot be rewound, and a stream attaches only before a
	// deployment's first request, so each shared pass gets a deployment
	// loaded up front.
	cfg.Obs = obs.NewSink()
	deps := make([]*server.Deployment, 7)
	for i := range deps {
		deps[i] = load(cfg)
	}
	all := append([]*server.Deployment(nil), deps...)
	ctx, release := ShareLLC(context.Background())
	defer release()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	pass := func() {
		d := deps[0]
		deps = deps[1:]
		if _, err := replayFrames(ctx, d, w, classes, a, 0); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("steady-state per-op replay from a shared stream allocates %.1f times per pass, want 0", allocs)
	}
	for _, d := range all {
		d.FlushObs()
	}
	if n, want := cfg.Obs.Counter("mnemo_server_llc_stream_requests_total").Value(), int64(len(all)*len(w.Ops)); n != want {
		t.Fatalf("%d requests priced from the stream, want all %d", n, want)
	}
}
