package server

// Tests and microbenchmarks for the index-addressed request path:
// FastIndices placements, DoIndex vs the string-keyed Do, and the per-op
// cost of both (BenchmarkDeploymentDo).

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
	// String lookups carry no routing information on a dense placement.
	if p.TierOf("whatever") != memsim.Slow {
		t.Fatal("TierOf on dense placement must fall back to the default")
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

// TestDoIndexMatchesDo drives two identically-seeded deployments through
// the same trace — one via the string-keyed Do on a FastSet placement,
// one via DoIndex on the equivalent FastIndices placement — and requires
// identical results per request and identical final clocks. This is the
// fast path's correctness contract: it removes string work, not
// behaviour.
func TestDoIndexMatchesDo(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastKeys := make([]string, half)
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastKeys[i] = recs[i].Key
		fastIdx[i] = i
	}

	cfg := DefaultConfig(RedisLike, 23)
	byKey := NewDeployment(cfg)
	if err := byKey.Load(w.Dataset, FastSet(fastKeys)); err != nil {
		t.Fatal(err)
	}
	byIndex := NewDeployment(cfg)
	if err := byIndex.Load(w.Dataset, FastIndices(fastIdx, len(recs))); err != nil {
		t.Fatal(err)
	}

	for n, op := range w.Ops {
		rec := recs[op.Key]
		rk := byKey.Do(rec.Key, op.Kind, rec.Size)
		ri := byIndex.DoIndex(op.Key, op.Kind)
		if rk != ri {
			t.Fatalf("op %d (%s %q): Do %+v != DoIndex %+v", n, op.Kind, rec.Key, rk, ri)
		}
	}
	if byKey.Clock() != byIndex.Clock() {
		t.Fatalf("clocks diverged: %v != %v", byKey.Clock(), byIndex.Clock())
	}
}

// TestDoAndDoIndexShareLLCEntry alternates the string-keyed and the
// index-keyed form on one record: whichever touches it second must find
// the entry the first one left, because both address the LLC by record
// index. (Under the old hashed identity for Do this would be two
// entries, and a dense placement would have routed Do to the wrong
// tier.) A key outside the dataset keeps an identity of its own.
func TestDoAndDoIndexShareLLCEntry(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1.0)
	recs := w.Dataset.Records
	d := NewDeployment(DefaultConfig(RedisLike, 3))
	if err := d.Load(w.Dataset, FastIndices([]int{0}, len(recs))); err != nil {
		t.Fatal(err)
	}

	if first := d.Do(recs[0].Key, kvstore.Read, 0); first.Hit || !first.Found || first.Tier != memsim.Fast {
		t.Fatalf("cold Do: %+v, want a FastMem miss on a found record", first)
	}
	if !d.DoIndex(0, kvstore.Read).Hit {
		t.Fatal("DoIndex missed the entry Do inserted")
	}
	if d.DoIndex(1, kvstore.Read).Hit {
		t.Fatal("cold DoIndex hit")
	}
	if second := d.Do(recs[1].Key, kvstore.Read, 0); !second.Hit || second.Tier != memsim.Slow {
		t.Fatalf("Do after DoIndex: %+v, want a SlowMem hit", second)
	}

	// A delete through one form invalidates what the other sees.
	d.Do(recs[1].Key, kvstore.Delete, 0)
	d.DoIndex(1, kvstore.Write)
	if res := d.Do(recs[1].Key, kvstore.Read, 0); !res.Hit || !res.Found {
		t.Fatalf("read after delete + re-insert: %+v, want a hit on the rewritten record", res)
	}
	if llc := d.machine.LLC(); llc.Len() != 2 {
		t.Fatalf("LLC holds %d entries for 2 touched records", llc.Len())
	}

	// Not in the dataset: absent from the store, cached under its own
	// identity, and no dataset record's entry is disturbed.
	if res := d.Do("no-such-key", kvstore.Read, 0); res.Found || res.Hit {
		t.Fatalf("foreign key: %+v, want a not-found miss", res)
	}
	if !d.Do("no-such-key", kvstore.Read, 0).Hit {
		t.Fatal("foreign key's second touch missed")
	}
	if !d.DoIndex(0, kvstore.Read).Hit || !d.DoIndex(1, kvstore.Read).Hit {
		t.Fatal("foreign key disturbed a dataset record's entry")
	}
}

// TestLoadResolvesDensePlacement checks that Load routes records through
// a dense placement's index table (TierOf is useless on a dense
// placement, so this exercises tierForRecord).
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

// BenchmarkDeploymentDo compares the per-request cost of the string-keyed
// path (a key-to-index map lookup in front of the shared body) against
// the index-addressed path (two slice loads + cached KeyID).
func BenchmarkDeploymentDo(b *testing.B) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "bench", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.95, Sizes: ycsb.SizeFixed1KB, Seed: 42,
	})
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastKeys := make([]string, half)
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastKeys[i] = recs[i].Key
		fastIdx[i] = i
	}
	load := func(b *testing.B, p Placement) *Deployment {
		b.Helper()
		d := NewDeployment(DefaultConfig(RedisLike, 42))
		if err := d.Load(w.Dataset, p); err != nil {
			b.Fatal(err)
		}
		return d
	}

	b.Run("String", func(b *testing.B) {
		d := load(b, FastSet(fastKeys))
		ops := w.Ops
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := ops[i%len(ops)]
			rec := recs[op.Key]
			d.Do(rec.Key, op.Kind, rec.Size)
		}
	})
	b.Run("Index", func(b *testing.B) {
		d := load(b, FastIndices(fastIdx, len(recs)))
		ops := w.Ops
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := ops[i%len(ops)]
			d.DoIndex(op.Key, op.Kind)
		}
	})
}
