package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewLRUCache(1 << 20)
	a := RecordRef{ID: 1, Bytes: 1024}
	if c.Access(a) {
		t.Fatal("cold access hit")
	}
	if !c.Access(a) {
		t.Fatal("warm access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewLRUCache(3000)
	a := RecordRef{ID: 1, Bytes: 1000}
	b := RecordRef{ID: 2, Bytes: 1000}
	d := RecordRef{ID: 3, Bytes: 1000}
	c.Access(a)
	c.Access(b)
	c.Access(d)
	c.Access(a) // refresh a; b is now LRU
	e := RecordRef{ID: 4, Bytes: 1000}
	c.Access(e) // evicts b
	if !c.Access(a) {
		t.Error("a should still be resident")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheOversizedRecordNeverCached(t *testing.T) {
	c := NewLRUCache(1000)
	big := RecordRef{ID: 1, Bytes: 5000}
	if c.Access(big) || c.Access(big) {
		t.Fatal("oversized record must never hit")
	}
	if c.Used() != 0 {
		t.Fatalf("oversized record consumed cache: used=%d", c.Used())
	}
}

func TestCacheSizeChangeIsMiss(t *testing.T) {
	c := NewLRUCache(1 << 20)
	c.Access(RecordRef{ID: 1, Bytes: 1000})
	// Record overwritten with a larger value: same ID, new size.
	if c.Access(RecordRef{ID: 1, Bytes: 2000}) {
		t.Fatal("resized record should miss")
	}
	if !c.Access(RecordRef{ID: 1, Bytes: 2000}) {
		t.Fatal("record with new size should now hit")
	}
	if c.Used() != 2000 {
		t.Fatalf("used = %d, want 2000 (no double-count)", c.Used())
	}
}

func TestCacheRemoveAndFlush(t *testing.T) {
	c := NewLRUCache(1 << 20)
	a := RecordRef{ID: 1, Bytes: 100}
	c.Access(a)
	c.Remove(1)
	if c.Access(a) {
		t.Fatal("removed record hit")
	}
	c.Remove(999) // absent: no-op
	c.Flush()
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("flush did not empty cache")
	}
	if c.Access(a) {
		t.Fatal("post-flush access hit")
	}
}

func TestCachePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLRUCache(0)
}

// Property: used bytes never exceed capacity and Len matches index size.
func TestCacheInvariantProperty(t *testing.T) {
	c := NewLRUCache(10_000)
	f := func(ops []struct {
		ID    uint8
		Bytes uint16
	}) bool {
		for _, op := range ops {
			b := int(op.Bytes)
			if b == 0 {
				b = 1
			}
			c.Access(RecordRef{ID: uint64(op.ID), Bytes: b})
			if c.Used() > c.Capacity() {
				return false
			}
			if c.Used() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheTouchLeavesStatsToCredit pins the split the LLC walker
// relies on: Touch changes residency and recency exactly like Access but
// counts nothing, leaving the tallies to its caller.
func TestCacheTouchLeavesStatsToCredit(t *testing.T) {
	c := NewLRUCache(1 << 20)
	a := RecordRef{ID: 7, Bytes: 512}
	if c.Touch(a) {
		t.Fatal("cold touch hit")
	}
	if !c.Touch(a) {
		t.Fatal("warm touch missed")
	}
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatalf("Touch counted: hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if !c.Access(a) {
		t.Fatal("Access after Touch missed: Touch did not insert")
	}
}

// TestCacheReserve covers the reserved range's lifecycle: Reserve
// empties the cache, IDs on either side of the bound are independent
// residents, and re-reserving — larger, smaller, or back to none —
// leaves no stale handle behind.
func TestCacheReserve(t *testing.T) {
	c := NewLRUCache(1 << 20)
	c.Access(RecordRef{ID: 3, Bytes: 100})
	c.Reserve(8)
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Reserve did not empty the cache")
	}
	inside, edge := RecordRef{ID: 7, Bytes: 100}, RecordRef{ID: 8, Bytes: 100}
	if c.Access(inside) || c.Access(edge) {
		t.Fatal("cold access hit after Reserve")
	}
	if !c.Access(inside) || !c.Access(edge) {
		t.Fatal("warm access missed on one side of the reserved bound")
	}
	c.Remove(7)
	if c.Access(inside) || !c.Access(edge) {
		t.Fatal("Remove inside the reserved range disturbed the wrong record")
	}
	for _, n := range []int{16, 4, 0, 4} {
		c.Access(inside)
		c.Access(edge)
		c.Reserve(n)
		if c.Len() != 0 {
			t.Fatalf("Reserve(%d) did not empty the cache", n)
		}
		if c.Access(inside) || c.Access(edge) {
			t.Fatalf("Reserve(%d) left a stale resident", n)
		}
		if !c.Access(inside) || !c.Access(edge) || c.Len() != 2 {
			t.Fatalf("cache unusable after Reserve(%d)", n)
		}
	}
}

// TestCacheFlushZeroAllocs pins the rewind cost of a repeated run: on a
// warmed cache holding both dense and hashed residents, Flush clears
// both indexes in place.
func TestCacheFlushZeroAllocs(t *testing.T) {
	c := NewLRUCache(1 << 20)
	c.Reserve(256)
	warm := func() {
		for i := uint64(0); i < 200; i++ {
			c.Access(RecordRef{ID: i, Bytes: 64})
			c.Access(RecordRef{ID: i<<32 | 1<<50, Bytes: 64})
		}
	}
	warm()
	c.Flush()
	allocs := testing.AllocsPerRun(10, func() {
		warm()
		c.Flush()
	})
	if allocs != 0 {
		t.Fatalf("warm + Flush allocates %.1f times per run, want 0", allocs)
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("flush did not empty cache")
	}
	if c.Access(RecordRef{ID: 5, Bytes: 64}) || c.Access(RecordRef{ID: 5<<32 | 1<<50, Bytes: 64}) {
		t.Fatal("post-flush access hit")
	}
}

// BenchmarkLRUTouchDense drives Touch the way the batched replay kernel
// does on a big trace: dense record indices in a reserved range, ≈100 KB
// records, the default 12 MB cache, and a key set far beyond it, so
// nearly every access is a miss that evicts the tail.
func BenchmarkLRUTouchDense(b *testing.B) {
	const (
		records = 10000
		reqs    = 1 << 16
	)
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, records)
	for i := range sizes {
		sizes[i] = 90<<10 + rng.Intn(20<<10)
	}
	refs := make([]RecordRef, reqs)
	for i := range refs {
		id := rng.Intn(records)
		refs[i] = RecordRef{ID: uint64(id), Bytes: sizes[id]}
	}
	c := NewLRUCache(DefaultConfig().LLCBytes)
	c.Reserve(records)
	for _, r := range refs {
		c.Touch(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(refs[i&(reqs-1)])
	}
}
