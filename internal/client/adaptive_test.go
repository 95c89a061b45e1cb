package client

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// greedySource is a self-contained adaptive policy for client tests: at
// every epoch boundary it promotes the most-read slow record and demotes
// the least-read fast record (a minimal hot/cold chaser, no registry
// dependency).
type greedySource struct{}

type greedyObserver struct{}

func (greedySource) Begin(*ycsb.Workload) (server.EpochObserver, error) {
	return greedyObserver{}, nil
}

func (greedyObserver) Observe(s server.EpochStats) []server.Move {
	hotSlow, coldFast := -1, -1
	for i := range s.Reads {
		n := s.Reads[i] + s.Writes[i]
		if s.Tiers[i] == memsim.Slow {
			if hotSlow < 0 || n > s.Reads[hotSlow]+s.Writes[hotSlow] {
				hotSlow = i
			}
		} else if coldFast < 0 || n < s.Reads[coldFast]+s.Writes[coldFast] {
			coldFast = i
		}
	}
	if hotSlow < 0 || coldFast < 0 {
		return nil
	}
	return []server.Move{
		{Index: coldFast, To: memsim.Slow},
		{Index: hotSlow, To: memsim.Fast},
	}
}

// adaptiveTestWorkload keeps sizes uniform (1 KiB) so swap moves always
// fit, and spans several 4096-op epochs.
func adaptiveTestWorkload(readRatio float64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "adapttest", Keys: 500, Requests: 20_000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: readRatio, Sizes: ycsb.SizeFixed1KB, Seed: 11,
	})
}

func halfFast(w *ycsb.Workload) server.Placement {
	n := len(w.Dataset.Records)
	idx := make([]int, 0, n/2)
	for i := n / 2; i < n; i++ {
		idx = append(idx, i)
	}
	return server.FastIndices(idx, n)
}

// TestAdaptiveEpochZeroIdentity pins the zero-value guarantee: a config
// carrying an adaptive source with EpochOps = 0 (and non-zero migration
// knobs, which must stay inert) is byte-identical to the plain static
// path.
func TestAdaptiveEpochZeroIdentity(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	p := halfFast(w)
	base, err := Execute(server.DefaultConfig(server.RedisLike, 7), w, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 0
	cfg.MigrationCostPerByte = 5
	cfg.MigrationBudget = 1 << 20
	got, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("EpochOps=0 diverged from the static path:\nstatic   %+v\nadaptive %+v", base, got)
	}
}

// TestAdaptiveBatchedMatchesPerOp pins the patched-table kernel against
// the per-op reference: the same adaptive run must be bit-identical on
// both replay paths, migrations included.
func TestAdaptiveBatchedMatchesPerOp(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	p := halfFast(w)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 4096
	cfg.MigrationCostPerByte = 0.5
	batched, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableBatchReplay = true
	perOp, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Epochs == 0 || batched.MovesApplied == 0 {
		t.Fatalf("adaptive run did not adapt: %+v", batched)
	}
	if !reflect.DeepEqual(batched, perOp) {
		t.Fatalf("batched and per-op adaptive runs diverged:\nbatched %+v\nper-op  %+v", batched, perOp)
	}
}

// TestAdaptiveShardedTelemetryMerged pins the cluster migration ledger:
// moves, bytes and charged ns are the sums of the shards' own runs,
// per-epoch rows are summed by epoch index, and Epochs is the longest
// shard's count.
func TestAdaptiveShardedTelemetryMerged(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "adaptshard", Keys: 500, Requests: 64_000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 11,
	})
	p := halfFast(w)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 4096
	cfg.MigrationCostPerByte = 0.5
	cfg.Shards = 4
	got, err := Execute(cfg, w, p)
	if err != nil {
		t.Fatal(err)
	}

	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	var want RunStats
	perEpoch := map[int]EpochTraffic{}
	for s := 0; s < sd.Shards(); s++ {
		st, err := RunCtx(context.Background(), sd.Dep(s), sd.Sub(s), 0)
		if err != nil {
			t.Fatal(err)
		}
		want.Epochs = max(want.Epochs, st.Epochs)
		want.MovesApplied += st.MovesApplied
		want.MigratedBytes += st.MigratedBytes
		want.MigrationNs += st.MigrationNs
		for _, row := range st.EpochTraffic {
			sum := perEpoch[row.Epoch]
			sum.Epoch = row.Epoch
			sum.Moves += row.Moves
			sum.Bytes += row.Bytes
			sum.CostNs += row.CostNs
			perEpoch[row.Epoch] = sum
		}
	}
	if want.Epochs < 2 || want.MovesApplied == 0 {
		t.Fatalf("shards did not adapt: %+v", want)
	}
	if got.Epochs != want.Epochs || got.MovesApplied != want.MovesApplied ||
		got.MigratedBytes != want.MigratedBytes || got.MigrationNs != want.MigrationNs {
		t.Fatalf("merged telemetry %d epochs, %d moves, %d B, %v ns; shards give %d, %d, %d, %v",
			got.Epochs, got.MovesApplied, got.MigratedBytes, got.MigrationNs,
			want.Epochs, want.MovesApplied, want.MigratedBytes, want.MigrationNs)
	}
	if len(got.EpochTraffic) != len(perEpoch) {
		t.Fatalf("merged %d epoch rows, shards cover %d epochs", len(got.EpochTraffic), len(perEpoch))
	}
	for _, row := range got.EpochTraffic {
		if row != perEpoch[row.Epoch] {
			t.Fatalf("epoch %d: merged %+v, shard sum %+v", row.Epoch, row, perEpoch[row.Epoch])
		}
	}
}

// TestAdaptiveTelemetry checks the migration ledger adds up: epoch count
// covers the trace, per-epoch traffic sums to the run totals, and the
// simulated cost charge matches bytes × cost.
func TestAdaptiveTelemetry(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 4096
	cfg.MigrationCostPerByte = 2
	st, err := Execute(cfg, w, halfFast(w))
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(w.Ops) + 4095) / 4096; st.Epochs != want {
		t.Fatalf("epochs %d, want %d", st.Epochs, want)
	}
	var moves int
	var bytes int64
	var cost float64
	for _, e := range st.EpochTraffic {
		moves += e.Moves
		bytes += e.Bytes
		cost += e.CostNs
	}
	if moves != st.MovesApplied || bytes != st.MigratedBytes || cost != st.MigrationNs {
		t.Fatalf("ledger mismatch: traffic %d/%d/%v vs totals %d/%d/%v",
			moves, bytes, cost, st.MovesApplied, st.MigratedBytes, st.MigrationNs)
	}
	if want := float64(st.MigratedBytes) * 2; st.MigrationNs != want {
		t.Fatalf("migration cost %v ns, want %v", st.MigrationNs, want)
	}
	if st.MovesApplied == 0 {
		t.Fatal("greedy source never moved anything")
	}
	// The final epoch ends the run; no boundary migration after it.
	if len(st.EpochTraffic) >= st.Epochs {
		t.Fatalf("%d traffic rows for %d epochs — the last epoch has no boundary", len(st.EpochTraffic), st.Epochs)
	}
}

// dropTableObserver invalidates the deployment's batched kernel at the
// first epoch boundary — modeling a mid-run patch failure whose rebuild
// fails too — and otherwise behaves exactly like greedyObserver, so a
// dropped run stays move-for-move comparable to an undropped one.
type dropTableObserver struct{ d *server.Deployment }

func (o *dropTableObserver) Begin(*ycsb.Workload) (server.EpochObserver, error) { return o, nil }

func (o *dropTableObserver) Observe(s server.EpochStats) []server.Move {
	o.d.DropBatchTable()
	return greedyObserver{}.Observe(s)
}

// TestAdaptiveFallbackMidRun is the regression for the batched→per-op
// fallback: when the batch table disappears at an epoch boundary, the
// remaining frames must be served (and tallied) per-op, and the run must
// stay bit-identical to an all-per-op run making the same moves.
func TestAdaptiveFallbackMidRun(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	p := halfFast(w)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.EpochOps = 4096
	cfg.MigrationCostPerByte = 0.5
	src := &dropTableObserver{}
	cfg.Adaptive = src
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		t.Fatal(err)
	}
	src.d = d
	if d.BatchTable() == nil {
		t.Fatal("deployment is not batch-capable; the fallback cannot be exercised")
	}
	got, err := RunCtx(context.Background(), d, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.BatchTable() != nil {
		t.Fatal("batch table survived the drop")
	}
	if want := (len(w.Ops) + 4095) / 4096; got.Epochs != want {
		t.Fatalf("fallback run covered %d epochs, want %d", got.Epochs, want)
	}
	if got.MovesApplied == 0 {
		t.Fatal("no moves applied after the fallback — post-drop epochs were not observed")
	}

	refCfg := server.DefaultConfig(server.RedisLike, 7)
	refCfg.EpochOps = 4096
	refCfg.MigrationCostPerByte = 0.5
	refCfg.Adaptive = greedySource{}
	refCfg.DisableBatchReplay = true
	ref, err := Execute(refCfg, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("fallback run diverged from the all-per-op reference:\nfallback %+v\nper-op   %+v", got, ref)
	}
}

// TestAdaptiveDeploymentNotReused: a migrated deployment's placement no
// longer matches the requested one, so the execute-reuse fast path must
// rebuild rather than replay on it.
func TestAdaptiveDeploymentNotReused(t *testing.T) {
	w := adaptiveTestWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 4096
	st, d, err := executeFresh(context.Background(), cfg, w, halfFast(w))
	if err != nil {
		t.Fatal(err)
	}
	if st.MovesApplied == 0 {
		t.Fatalf("adaptive run never migrated: %+v", st)
	}
	// A migrated deployment's placement no longer matches the requested
	// one; the execute-reuse fast path must rebuild, not replay on it.
	if canReuse(d) {
		t.Fatal("migrated deployment offered for snapshot reuse")
	}
	// Repetition sweeps therefore fold independent migrated runs; the
	// telemetry counters sum across them.
	mean, err := ExecuteMean(cfg, w, halfFast(w), 2)
	if err != nil {
		t.Fatal(err)
	}
	if mean.Epochs != 2*st.Epochs {
		t.Fatalf("mean of 2 runs folded %d epochs, want %d", mean.Epochs, 2*st.Epochs)
	}
}

// TestAdaptiveRespectsContext: cancellation still lands between frames
// of an adaptive run.
func TestAdaptiveRespectsContext(t *testing.T) {
	w := adaptiveTestWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Adaptive = greedySource{}
	cfg.EpochOps = 4096
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteCtx(ctx, cfg, w, halfFast(w)); err == nil {
		t.Fatal("cancelled adaptive run returned no error")
	}
}

// tallySource checks every epoch's tallies against a recount of that
// epoch's slice of the trace — the tally arrays are re-zeroed only where
// the previous epoch touched them, so a missed entry would leak counts
// into the next epoch.
type tallySource struct {
	t   *testing.T
	ops []ycsb.Op
	at  int
}

func (s *tallySource) Begin(*ycsb.Workload) (server.EpochObserver, error) { s.at = 0; return s, nil }

func (s *tallySource) Observe(st server.EpochStats) []server.Move {
	reads, writes := make([]int32, len(st.Reads)), make([]int32, len(st.Writes))
	for _, op := range s.ops[s.at : s.at+st.Ops] {
		if op.Kind == kvstore.Read {
			reads[op.Key]++
		} else {
			writes[op.Key]++
		}
	}
	s.at += st.Ops
	if !slices.Equal(st.Reads, reads) || !slices.Equal(st.Writes, writes) {
		s.t.Errorf("epoch %d: tallies differ from a recount of the epoch's ops", st.Epoch)
	}
	return nil
}

func TestAdaptiveTalliesArePerEpoch(t *testing.T) {
	w := adaptiveTestWorkload(0.7)
	for _, perOp := range []bool{false, true} {
		cfg := server.DefaultConfig(server.RedisLike, 7)
		cfg.Adaptive = &tallySource{t: t, ops: w.Ops}
		cfg.EpochOps = 4096
		cfg.DisableBatchReplay = perOp
		if _, err := Execute(cfg, w, halfFast(w)); err != nil {
			t.Fatal(err)
		}
	}
}
