package server

// In-package tests of the batched replay kernel (batch.go): table
// availability, Serve vs the per-op DoIndex path, and the ResetRun
// snapshot/reset. End-to-end bit-identity across engines and placements
// lives in
// internal/client/batch_test.go; these pin the kernel's own contracts.

import (
	"testing"

	"mnemo/internal/kvstore/treekv"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// loadHalfFast loads the workload with the first half of the dataset in
// FastMem and returns the deployment.
func loadHalfFast(t *testing.T, cfg Config, w *ycsb.Workload) *Deployment {
	t.Helper()
	n := len(w.Dataset.Records)
	idx := make([]int, n/2)
	for i := range idx {
		idx[i] = i
	}
	d := NewDeployment(cfg)
	if err := d.Load(w.Dataset, FastIndices(idx, n)); err != nil {
		t.Fatal(err)
	}
	return d
}

// serveAll drives the whole packed trace through the kernel, returning
// every request latency in order.
func serveAll(t *testing.T, d *Deployment, pt *ycsb.PackedTrace) []simclock.Duration {
	t.Helper()
	tab := d.BatchTable()
	if tab == nil {
		t.Fatal("no batch table on a loaded default-config deployment")
	}
	out := make([]simclock.Duration, 0, len(pt.Keys))
	lat := tab.Block()
	for blk := 0; blk < len(pt.Keys); blk += ReplayBlockOps {
		end := blk + ReplayBlockOps
		if end > len(pt.Keys) {
			end = len(pt.Keys)
		}
		served := tab.Serve(pt.Keys[blk:end], pt.Kinds[blk:end], 0, lat)
		if served != end-blk {
			t.Fatalf("Serve served %d/%d", served, end-blk)
		}
		out = append(out, lat[:served]...)
	}
	return out
}

// TestServeMatchesDoIndex replays the same trace through the per-op
// DoIndex path and the batched kernel on identically-seeded deployments
// and requires identical per-request latencies and final clocks — the
// kernel removes interface calls, not behaviour.
func TestServeMatchesDoIndex(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
			pt := w.Packed()
			if !pt.Batchable() {
				t.Fatal("read/write trace not batchable")
			}
			cfg := DefaultConfig(e, 23)

			perOp := loadHalfFast(t, cfg, w)
			want := make([]simclock.Duration, len(w.Ops))
			for i, op := range w.Ops {
				want[i] = perOp.DoIndex(op.Key, op.Kind).Latency
			}

			batched := loadHalfFast(t, cfg, w)
			got := serveAll(t, batched, pt)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: batched latency %v != per-op %v", i, got[i], want[i])
				}
			}
			if perOp.Clock() != batched.Clock() {
				t.Fatalf("clocks diverged: per-op %v, batched %v", perOp.Clock(), batched.Clock())
			}
		})
	}
}

func TestBatchTableUnavailable(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1.0)

	cfg := DefaultConfig(RedisLike, 5)
	cfg.DisableBatchReplay = true
	d := loadHalfFast(t, cfg, w)
	if d.BatchTable() != nil {
		t.Error("DisableBatchReplay still built a table")
	}
	if d.BatchTable() != nil { // latched probe
		t.Error("second probe built a table despite the latch")
	}
	if d.ResetRun(99) {
		t.Error("ResetRun succeeded without a batch table")
	}

	if NewDeployment(DefaultConfig(RedisLike, 5)).BatchTable() != nil {
		t.Error("unloaded deployment built a table")
	}
}

// TestBatchTableRebuiltAfterLoad checks Load invalidates the latched
// table: the old table prices the old dataset and must not survive.
func TestBatchTableRebuiltAfterLoad(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1.0)
	cfg := DefaultConfig(RedisLike, 5)
	d := loadHalfFast(t, cfg, w)
	first := d.BatchTable()
	if first == nil {
		t.Fatal("no table after first load")
	}
	n := len(w.Dataset.Records)
	if err := d.Load(w.Dataset, FastIndices(nil, n)); err != nil {
		t.Fatal(err)
	}
	second := d.BatchTable()
	if second == nil || second == first {
		t.Fatalf("table not rebuilt after re-Load (first %p, second %p)", first, second)
	}
}

// TestResetRunMatchesFreshLoad is the snapshot/reset contract at the
// server layer: a reset deployment replays bit-identically to a freshly
// populated one under the same seed, and leaves the engines' pause
// accumulators where the fresh replay does. On DynamoLike the replay
// crosses the GC budget, so a rewind that left the accumulator where
// the first replay did would fire its pauses elsewhere.
func TestResetRunMatchesFreshLoad(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
			pt := w.Packed()

			reused := loadHalfFast(t, DefaultConfig(e, 23), w)
			serveAll(t, reused, pt) // dirty the clock, LLC, noise, pauses
			if !reused.ResetRun(77) {
				t.Fatal("ResetRun failed on a batch-capable deployment")
			}
			got := serveAll(t, reused, pt)

			fresh := loadHalfFast(t, DefaultConfig(e, 77), w)
			want := serveAll(t, fresh, pt)

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: reset latency %v != fresh %v", i, got[i], want[i])
				}
			}
			if reused.Clock() != fresh.Clock() {
				t.Fatalf("clocks diverged: reset %v, fresh %v", reused.Clock(), fresh.Clock())
			}
			if reused.llcHits != fresh.llcHits || reused.llcMisses != fresh.llcMisses {
				t.Fatalf("LLC tallies diverged: reset %d/%d, fresh %d/%d",
					reused.llcHits, reused.llcMisses, fresh.llcHits, fresh.llcMisses)
			}
			for i, br := range reused.replayers {
				got, _ := br.PauseAccum()
				want, _ := fresh.replayers[i].PauseAccum()
				if got != want {
					t.Fatalf("instance %d: pause accumulator %d after the reset replay, %d after the fresh one", i, got, want)
				}
			}
			if st, ok := fresh.instances[memsim.Fast].(*treekv.Store); ok && st.GCCount() == 0 {
				t.Fatal("the fresh replay collected no garbage on FastMem; the pause check is vacuous")
			}
		})
	}
}

// TestResetRunZeroAllocs pins the rewind as allocation-free, on the
// shared default-σ noise table and on a privately built one: the noise
// stream is reseeded in place, never rebuilt.
func TestResetRunZeroAllocs(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	for _, sigma := range []float64{DefaultNoiseSigma, 0.05} {
		cfg := DefaultConfig(RedisLike, 23)
		cfg.NoiseSigma = sigma
		d := loadHalfFast(t, cfg, w)
		serveAll(t, d, w.Packed())
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if !d.ResetRun(seed) {
				t.Fatal("ResetRun failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("σ=%v: ResetRun made %v allocations, want 0", sigma, allocs)
		}
	}
}

// TestResetRunTelemetryParity checks a reset counts and journals like a
// fresh deployment: the deployments counter advances once per reset.
func TestResetRunTelemetryParity(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	sink := obs.NewSink()
	cfg := DefaultConfig(RedisLike, 23)
	cfg.Obs = sink
	d := loadHalfFast(t, cfg, w)

	name := obs.Name("mnemo_server_deployments_total", "engine", RedisLike.String())
	if got := sink.Counter(name).Value(); got != 1 {
		t.Fatalf("deployments counter after load = %d, want 1", got)
	}
	serveAll(t, d, w.Packed())
	d.FlushObs()
	if !d.ResetRun(31) {
		t.Fatal("ResetRun failed")
	}
	if got := sink.Counter(name).Value(); got != 2 {
		t.Fatalf("deployments counter after reset = %d, want 2", got)
	}
	// Flush cursors rewound: the next flush re-publishes from zero, so
	// a second identical run doubles the op counter rather than
	// publishing an empty delta.
	serveAll(t, d, w.Packed())
	d.FlushObs()
	ops := sink.Counter(obs.Name("mnemo_server_ops_total", "engine", RedisLike.String())).Value()
	if ops != int64(2*len(w.Ops)) {
		t.Fatalf("ops counter after two flushed runs = %d, want %d", ops, 2*len(w.Ops))
	}
}
