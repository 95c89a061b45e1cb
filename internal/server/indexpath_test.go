package server

// Tests for the index-addressed request path: FastIndices placements
// and DoIndex's addressing of the LLC by dataset record index.

import (
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

func TestFastIndicesRouting(t *testing.T) {
	p := FastIndices([]int{0, 2}, 4)
	if !p.Dense() {
		t.Fatal("FastIndices placement not dense")
	}
	want := []memsim.Tier{memsim.Fast, memsim.Slow, memsim.Fast, memsim.Slow}
	for i, w := range want {
		if got := p.TierOfIndex(i); got != w {
			t.Fatalf("TierOfIndex(%d) = %v, want %v", i, got, w)
		}
	}
	if p.FastKeyCount() != 2 {
		t.Fatalf("FastKeyCount = %d, want 2", p.FastKeyCount())
	}
	if p.Default() != memsim.Slow {
		t.Fatal("dense placement default must be Slow")
	}
	// Out-of-range indices on a loaded table fall back to the default.
	if p.TierOfIndex(99) != memsim.Slow {
		t.Fatal("out-of-range TierOfIndex must fall back to the default")
	}
}

func TestFastIndicesRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index accepted")
		}
	}()
	FastIndices([]int{4}, 4)
}

// TestDoIndexLLCEntryPerRecord pins how DoIndex addresses the LLC: one
// entry per dataset record, found again on the record's next touch
// whatever its tier, dropped by a Delete and cached again by the Write
// that re-inserts the record.
func TestDoIndexLLCEntryPerRecord(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1.0)
	d := NewDeployment(DefaultConfig(RedisLike, 3))
	if err := d.Load(w.Dataset, FastIndices([]int{0}, len(w.Dataset.Records))); err != nil {
		t.Fatal(err)
	}

	if first := d.DoIndex(0, kvstore.Read); first.Hit || !first.Found || first.Tier != memsim.Fast {
		t.Fatalf("cold DoIndex: %+v, want a FastMem miss on a found record", first)
	}
	if !d.DoIndex(0, kvstore.Read).Hit {
		t.Fatal("second DoIndex missed the entry the first inserted")
	}
	if d.DoIndex(1, kvstore.Read).Hit {
		t.Fatal("cold DoIndex hit")
	}
	if second := d.DoIndex(1, kvstore.Read); !second.Hit || second.Tier != memsim.Slow {
		t.Fatalf("warm DoIndex: %+v, want a SlowMem hit", second)
	}

	d.DoIndex(1, kvstore.Delete)
	if res := d.DoIndex(1, kvstore.Read); res.Hit || res.Found {
		t.Fatalf("read after delete: %+v, want a not-found miss", res)
	}
	d.DoIndex(1, kvstore.Write)
	if res := d.DoIndex(1, kvstore.Read); !res.Hit || !res.Found {
		t.Fatalf("read after delete + re-insert: %+v, want a hit on the rewritten record", res)
	}
	if llc := d.machine.LLC(); llc.Len() != 2 {
		t.Fatalf("LLC holds %d entries for 2 touched records", llc.Len())
	}
}

// TestLoadResolvesDensePlacement checks that Load routes records through
// a dense placement's index table.
func TestLoadResolvesDensePlacement(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1.0)
	n := len(w.Dataset.Records)
	d := NewDeployment(DefaultConfig(RedisLike, 3))
	if err := d.Load(w.Dataset, FastIndices([]int{0, 1}, n)); err != nil {
		t.Fatal(err)
	}
	if got := d.Instance(memsim.Fast).Len(); got != 2 {
		t.Fatalf("fast instance holds %d records, want 2", got)
	}
	if got := d.Instance(memsim.Slow).Len(); got != n-2 {
		t.Fatalf("slow instance holds %d records, want %d", got, n-2)
	}
}
