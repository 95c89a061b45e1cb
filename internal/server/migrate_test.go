package server

import (
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// migrationDeployment loads a fixed-1KB workload with records 0 and 1 in
// FastMem, the canvas every ApplyMoves test paints on.
func migrationDeployment(t *testing.T, mut func(*Config)) (*Deployment, int) {
	t.Helper()
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1)
	cfg := DefaultConfig(RedisLike, 1)
	if mut != nil {
		mut(&cfg)
	}
	d := NewDeployment(cfg)
	if err := d.Load(w.Dataset, FastIndices([]int{0, 1}, len(w.Dataset.Records))); err != nil {
		t.Fatal(err)
	}
	return d, len(w.Dataset.Records)
}

func TestApplyMovesMigratesAndCharges(t *testing.T) {
	d, _ := migrationDeployment(t, func(c *Config) { c.MigrationCostPerByte = 2 })
	before := d.Clock()
	res := d.ApplyMoves([]Move{{Index: 2, To: memsim.Fast}, {Index: 0, To: memsim.Slow}})
	if res.Moves != 2 || res.SkippedBudget != 0 || res.SkippedFull != 0 {
		t.Fatalf("result %+v, want 2 clean moves", res)
	}
	if res.Bytes != 2048 {
		t.Fatalf("migrated %d bytes, want 2048", res.Bytes)
	}
	if want := float64(res.Bytes) * 2; res.CostNs != want {
		t.Fatalf("cost %v ns, want %v", res.CostNs, want)
	}
	if got := d.Clock() - before; got != simclock.FromNanos(res.CostNs) {
		t.Fatalf("clock advanced %v, want %v", got, simclock.FromNanos(res.CostNs))
	}
	tiers := d.RecordTiers()
	if tiers[0] != memsim.Slow || tiers[1] != memsim.Fast || tiers[2] != memsim.Fast {
		t.Fatalf("tiers after swap: %v %v %v", tiers[0], tiers[1], tiers[2])
	}
	if !d.mutated {
		t.Fatal("not mutated after a real move")
	}
	if d.ResetRun(2) {
		t.Fatal("migrated deployment must refuse the post-Load snapshot reset")
	}
}

func TestApplyMovesSkipsNoopsAndBadIndices(t *testing.T) {
	d, n := migrationDeployment(t, nil)
	before := d.Clock()
	res := d.ApplyMoves([]Move{
		{Index: -1, To: memsim.Fast},
		{Index: n, To: memsim.Fast},
		{Index: 0, To: memsim.Fast}, // already fast
		{Index: 5, To: memsim.Slow}, // already slow
	})
	if res != (MigrationResult{}) {
		t.Fatalf("result %+v, want all-zero", res)
	}
	if d.mutated {
		t.Fatal("no-op call marked the deployment migrated")
	}
	if d.Clock() != before {
		t.Fatal("no-op call advanced the clock")
	}
	if !d.ResetRun(2) {
		t.Fatal("unmigrated deployment must still reset")
	}
}

func TestApplyMovesBudget(t *testing.T) {
	d, _ := migrationDeployment(t, func(c *Config) { c.MigrationBudget = 1500 })
	res := d.ApplyMoves([]Move{{Index: 2, To: memsim.Fast}, {Index: 3, To: memsim.Fast}})
	if res.Moves != 1 || res.Bytes != 1024 || res.SkippedBudget != 1 {
		t.Fatalf("result %+v, want 1 move / 1 skipped by the 1500-byte budget", res)
	}
}

func TestApplyMovesDemotionsRunFirst(t *testing.T) {
	// FastMem holds exactly the two loaded records: a swap listed
	// promotion-first can only succeed if the demotion runs first.
	d, _ := migrationDeployment(t, func(c *Config) { c.Machine.FastCapacity = 2048 })
	res := d.ApplyMoves([]Move{{Index: 2, To: memsim.Fast}, {Index: 1, To: memsim.Slow}})
	if res.Moves != 2 || res.SkippedFull != 0 {
		t.Fatalf("swap under exact capacity: %+v", res)
	}
	tiers := d.RecordTiers()
	if tiers[1] != memsim.Slow || tiers[2] != memsim.Fast {
		t.Fatal("swap did not take effect")
	}
}

func TestApplyMovesFullTier(t *testing.T) {
	d, _ := migrationDeployment(t, func(c *Config) { c.Machine.FastCapacity = 2048 })
	res := d.ApplyMoves([]Move{{Index: 2, To: memsim.Fast}})
	if res.Moves != 0 || res.SkippedFull != 1 {
		t.Fatalf("promotion into a full tier: %+v", res)
	}
	if d.mutated {
		t.Fatal("dropped move marked the deployment migrated")
	}
}

// TestApplyMovesPatchesBatchTable: migrating must keep the batched
// kernel's cost table usable, with the moved records re-priced for their
// new tier (a fast-tier read is strictly cheaper than the same record
// served slow on every engine).
func TestApplyMovesPatchesBatchTable(t *testing.T) {
	d, _ := migrationDeployment(t, nil)
	tab := d.BatchTable()
	if tab == nil {
		t.Fatal("no batch table before migration")
	}
	slowRead := tab.cost[2][costSlot(uint8(kvstore.Read), 0)]
	res := d.ApplyMoves([]Move{{Index: 2, To: memsim.Fast}})
	if res.Moves != 1 {
		t.Fatalf("move dropped: %+v", res)
	}
	tab2 := d.BatchTable()
	if tab2 == nil {
		t.Fatal("batch table invalidated by a clean migration")
	}
	if tab2 != tab {
		t.Fatal("migration rebuilt the table instead of patching it")
	}
	if d.tiers[2] != memsim.Fast {
		t.Fatal("moved record not re-routed to the fast instance")
	}
	if got := tab2.cost[2][costSlot(uint8(kvstore.Read), 0)]; got >= slowRead {
		t.Fatalf("fast read miss %v ns not cheaper than slow %v ns", got, slowRead)
	}
}
