package server

// In-package tests of the journal-driven re-price (batch.go reprice):
// a table refreshed from the rows the engines report relaid must equal
// one re-probed from scratch, and a warm refresh must not allocate.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

// sameCost compares record i's cost rows, on every lane, in two tables
// bit for bit.
func sameCost(a, b *ReplayTable, i int) bool {
	for k := range a.lanes {
		for j, x := range a.cost[i*a.lanes+k] {
			if math.Float64bits(x) != math.Float64bits(b.cost[i*b.lanes+k][j]) {
				return false
			}
		}
	}
	return true
}

// requireRepricedAsFull hands the table to the kernel as the next frame
// would — refreshing it if stale — and compares it, row for row, with a
// re-price from scratch of the same engine state. It returns the rows the refresh probed, or -1 when
// the engines withheld the table.
func requireRepricedAsFull(t *testing.T, d *Deployment) int64 {
	t.Helper()
	before := d.repricedRows
	got, _ := d.FrameTable(nil, nil, true, 0)
	probed := int64(0)
	for i := range before {
		probed += d.repricedRows[i] - before[i]
	}
	d.table, d.stale = nil, causeMigrate
	full := d.BatchTable()
	d.table = got
	if (got == nil) != (full == nil) {
		t.Fatalf("refresh gave table %v, full re-price %v", got != nil, full != nil)
	}
	if got == nil {
		return -1
	}
	for i := range d.records {
		if d.nDead > 0 && d.dead[i] && !d.missRows {
			continue
		}
		if !sameCost(got, full, i) {
			t.Fatalf("row %d: refreshed %+v, full re-price %+v", i, got.cost[i], full.cost[i])
		}
	}
	return probed
}

// TestBoundedRepriceMatchesFull drives every engine through random
// migration rounds in both directions, one promotion wave large enough
// to resize the FastMem hash table, and rounds of Deletes and
// re-inserting Writes; after each, the journal-driven refresh must equal
// a full re-price bit for bit, deleted records' not-found rows included.
// The hash and slab journals keep most refreshes bounded; the tree
// engine's never is.
func TestBoundedRepriceMatchesFull(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
			n := len(w.Dataset.Records)
			d := loadHalfFast(t, DefaultConfig(e, 11), w)
			if d.BatchTable() == nil {
				t.Fatal("no table after Load")
			}
			rng := rand.New(rand.NewSource(int64(e) + 1))
			bounded := 0
			round := func(name string, mutate func()) int64 {
				mutate()
				stale := d.stale != priced
				probed := requireRepricedAsFull(t, d)
				if stale && probed >= 0 && probed < int64(n-d.nDead) {
					bounded++
				}
				t.Logf("%s: %d rows probed", name, probed)
				return probed
			}
			migrate := func(k int, to func() memsim.Tier) {
				moves := make([]Move, k)
				for i := range moves {
					moves[i] = Move{Index: rng.Intn(n), To: to()}
				}
				d.ApplyMoves(moves)
			}
			randomTier := func() memsim.Tier { return memsim.Tier(rng.Intn(2)) }
			for r := 0; r < 20; r++ {
				round(fmt.Sprintf("moves %d", r), func() { migrate(1+rng.Intn(40), randomTier) })
			}
			// FastMem holds 1000 records in 1024 buckets: a wave of
			// promotions pushes the table past its load factor.
			probed := round("promotion wave", func() { migrate(400, func() memsim.Tier { return memsim.Fast }) })
			if e == RedisLike && probed != int64(n-d.nDead) {
				t.Fatalf("resize wave probed %d rows, want all %d", probed, n-d.nDead)
			}
			for r := 0; r < 10; r++ {
				round(fmt.Sprintf("deletes %d", r), func() {
					for i := 0; i < 1+rng.Intn(20); i++ {
						kind := kvstore.Delete
						if rng.Intn(3) == 0 {
							kind = kvstore.Write
						}
						d.DoIndex(rng.Intn(n), kind)
					}
				})
				round(fmt.Sprintf("re-inserts %d", r), func() {
					for i := range d.records {
						if d.nDead > 0 && d.dead[i] && rng.Intn(2) == 0 {
							d.DoIndex(i, kvstore.Write)
						}
					}
				})
				round(fmt.Sprintf("moves after deletes %d", r), func() { migrate(1+rng.Intn(40), randomTier) })
			}
			if e != DynamoLike && bounded < 30 {
				t.Fatalf("only %d of 51 rounds refreshed fewer rows than a full re-price", bounded)
			}
			if e == DynamoLike && bounded != 0 {
				t.Fatalf("%v reported a bounded relayout in %d rounds", e, bounded)
			}
		})
	}
}

// TestBoundedRepriceAllocs: once its scratch is warm, a journal-driven
// refresh — here after a per-op Delete — allocates nothing.
func TestBoundedRepriceAllocs(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	d := loadHalfFast(t, DefaultConfig(RedisLike, 3), w)
	if d.BatchTable() == nil {
		t.Fatal("no table after Load")
	}
	// A migration wave sizes the journals and the row scratch.
	moves := make([]Move, 200)
	for i := range moves {
		moves[i] = Move{Index: 1000 + i, To: memsim.Fast}
	}
	d.ApplyMoves(moves)
	if d.BatchTable() == nil {
		t.Fatal("no table after the warm-up migration")
	}
	next := 0
	before := d.repricedRows[causeStructural]
	allocs := testing.AllocsPerRun(50, func() {
		d.DoIndex(next, kvstore.Delete)
		next++
		if d.BatchTable() == nil {
			t.Fatal("no table after a Delete")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm bounded re-price: %v allocations, want 0", allocs)
	}
	if rows := d.repricedRows[causeStructural] - before; rows >= int64(len(w.Dataset.Records)) {
		t.Fatalf("51 Delete re-prices probed %d rows: not bounded", rows)
	}
}

// TestRelaidStampWraps: the per-row generation stamps that dedup a
// drain's rows restart cleanly when the drain counter wraps — rows
// stamped with the generation the counter restarts at must still be
// collected.
func TestRelaidStampWraps(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	n := len(w.Dataset.Records)
	d := loadHalfFast(t, DefaultConfig(RedisLike, 5), w)
	if d.BatchTable() == nil {
		t.Fatal("no table after Load")
	}
	migrate := func(first int, to memsim.Tier) {
		moves := make([]Move, 20)
		for i := range moves {
			moves[i] = Move{Index: first + i, To: to}
		}
		d.ApplyMoves(moves)
	}
	migrate(0, memsim.Slow)
	if probed := requireRepricedAsFull(t, d); probed <= 0 || probed >= int64(n) {
		t.Fatalf("warm-up migration probed %d rows, want a bounded refresh", probed)
	}
	for i := range d.relaidGen {
		d.relaidGen[i] = 1
	}
	d.relaidStamp = math.MaxUint32
	migrate(n-20, memsim.Fast)
	if probed := requireRepricedAsFull(t, d); probed < 20 {
		t.Fatalf("migration across the stamp wrap probed %d rows, want at least the 20 moved", probed)
	}
}
