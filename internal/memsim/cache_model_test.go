package memsim

// Model-based test of the flat-slice LRUCache: a reference cache built on
// container/list (the previous implementation, kept here as the
// executable specification) is driven through long randomized op
// sequences in lockstep with the real one, and every observable — hit
// results, residency, byte usage, counters — must agree at every step;
// the full MRU→LRU order is compared periodically and at the end.

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

type refCache struct {
	capacity int64
	used     int64
	order    *list.List
	index    map[uint64]*list.Element

	hits, misses int64
}

type refEntry struct {
	id    uint64
	bytes int64
}

func newRefCache(capacity int64) *refCache {
	return &refCache{capacity: capacity, order: list.New(), index: make(map[uint64]*list.Element)}
}

func (c *refCache) access(rec RecordRef) bool {
	size := int64(rec.Bytes)
	if el, ok := c.index[rec.ID]; ok {
		if el.Value.(refEntry).bytes == size {
			c.order.MoveToFront(el)
			c.hits++
			return true
		}
		c.removeElement(el)
	}
	c.misses++
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		if back := c.order.Back(); back != nil {
			c.removeElement(back)
		}
	}
	c.index[rec.ID] = c.order.PushFront(refEntry{id: rec.ID, bytes: size})
	c.used += size
	return false
}

func (c *refCache) remove(id uint64) {
	if el, ok := c.index[id]; ok {
		c.removeElement(el)
	}
}

func (c *refCache) removeElement(el *list.Element) {
	ent := el.Value.(refEntry)
	c.order.Remove(el)
	delete(c.index, ent.id)
	c.used -= ent.bytes
}

// ids lists the resident IDs from most to least recently used.
func (c *refCache) ids() []uint64 {
	out := make([]uint64, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(refEntry).id)
	}
	return out
}

// recency lists the cache's resident IDs from most to least recently
// used by walking its intrusive list.
func (c *LRUCache) recency() []uint64 {
	out := make([]uint64, 0, c.size)
	for s := c.head; s >= 0; s = c.slots[s].next {
		out = append(out, c.slots[s].id)
	}
	return out
}

// requireSameRecency fails unless got holds want's residents in want's
// MRU→LRU order.
func requireSameRecency(t *testing.T, step int, got *LRUCache, want *refCache) {
	t.Helper()
	if g, w := got.recency(), want.ids(); !slices.Equal(g, w) {
		t.Fatalf("step %d: recency order %v, reference %v", step, g, w)
	}
}

func (c *refCache) flush() {
	c.order.Init()
	c.index = make(map[uint64]*list.Element)
	c.used = 0
}

// TestLRUCacheMatchesReferenceModel drives the same randomized sequence
// — accesses, size-changing overwrites, oversize records, removals,
// flushes — through each way a cache can be addressed: dense IDs inside
// a reserved range (the handle array), hash-like IDs on an un-reserved
// cache (the probe table), and both kinds mixed in one cache, where the
// two indexes share one recency list and one byte budget.
func TestLRUCacheMatchesReferenceModel(t *testing.T) {
	const (
		capacity = 64 << 10
		nIDs     = 512
		steps    = 250000
	)
	for _, tc := range []struct {
		name    string
		reserve int
		dense   int // how many of the nIDs are record indices below reserve
	}{
		{"dense", nIDs, nIDs},
		{"hashed", 0, 0},
		// The mixed population also holds the first IDs past the
		// reserved range, which must take the probe table.
		{"mixed", nIDs / 2, nIDs / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := NewLRUCache(capacity)
			if tc.reserve > 0 {
				got.Reserve(tc.reserve)
			}
			want := newRefCache(capacity)
			rng := rand.New(rand.NewSource(99))

			// IDs drawn from a working set a few times the cache's record
			// capacity force constant eviction churn.
			ids := make([]uint64, nIDs)
			for i := range ids {
				switch {
				case i < tc.dense:
					ids[i] = uint64(i)
				case tc.reserve > 0 && i < tc.dense+8:
					ids[i] = uint64(tc.reserve + i - tc.dense)
				default:
					ids[i] = rng.Uint64() | 1<<40 // hash-like IDs, as kvstore.KeyID produces
				}
			}
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(1000); {
				case r < 900:
					rec := RecordRef{ID: ids[rng.Intn(len(ids))], Bytes: 1 << (5 + rng.Intn(8))}
					if g, w := got.Access(rec), want.access(rec); g != w {
						t.Fatalf("step %d: Access(%+v) = %v, reference says %v", step, rec, g, w)
					}
				case r < 970:
					id := ids[rng.Intn(len(ids))]
					got.Remove(id)
					want.remove(id)
				case r < 990:
					// Uncacheable streaming record.
					rec := RecordRef{ID: ids[rng.Intn(len(ids))], Bytes: capacity * 2}
					if g, w := got.Access(rec), want.access(rec); g != w {
						t.Fatalf("step %d: streaming Access = %v, reference says %v", step, g, w)
					}
				default:
					got.Flush()
					want.flush()
				}
				if got.Used() != want.used {
					t.Fatalf("step %d: used %d, reference %d", step, got.Used(), want.used)
				}
				if got.Len() != want.order.Len() {
					t.Fatalf("step %d: len %d, reference %d", step, got.Len(), want.order.Len())
				}
				if got.Hits() != want.hits || got.Misses() != want.misses {
					t.Fatalf("step %d: hits/misses %d/%d, reference %d/%d",
						step, got.Hits(), got.Misses(), want.hits, want.misses)
				}
				if step%1000 == 0 {
					requireSameRecency(t, step, got, want)
				}
			}
			requireSameRecency(t, steps, got, want)
			if want.hits == 0 || want.misses == 0 {
				t.Fatalf("vacuous run: %d hits, %d misses", want.hits, want.misses)
			}
		})
	}
}

// TestLRUCacheDenseIDs repeats a short model run with small sequential
// IDs, the worst case for a table that indexes IDs without re-hashing.
func TestLRUCacheDenseIDs(t *testing.T) {
	const capacity = 4 << 10
	got := NewLRUCache(capacity)
	want := newRefCache(capacity)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 50000; step++ {
		rec := RecordRef{ID: uint64(rng.Intn(256)), Bytes: 64 + rng.Intn(192)}
		if rng.Intn(20) == 0 {
			got.Remove(rec.ID)
			want.remove(rec.ID)
			continue
		}
		if g, w := got.Access(rec), want.access(rec); g != w {
			t.Fatalf("step %d: Access(%+v) = %v, reference says %v", step, rec, g, w)
		}
	}
	if got.Used() != want.used || got.Len() != want.order.Len() {
		t.Fatalf("final state diverged: used %d/%d len %d/%d",
			got.Used(), want.used, got.Len(), want.order.Len())
	}
	requireSameRecency(t, 50000, got, want)
}

// TestLRUCacheEvictInPlace pins Touch's in-place eviction against the
// sequence it replaces. Record sizes are drawn so that a miss on the full
// cache needs no eviction, one, or several; before every access a clone
// of the cache plays the general path — remove the tail until the record
// fits, then insert — and the two caches must then agree field for field:
// slots, free list, both ends of the recency list, the handle array,
// bytes used and length. The reference model checks the recency order
// alongside, and the run counts the accesses whose last eviction the
// relabel serves, so it cannot pass vacuously.
func TestLRUCacheEvictInPlace(t *testing.T) {
	const (
		capacity = 16 << 10
		nIDs     = 256
		steps    = 20000
	)
	got := NewLRUCache(capacity)
	got.Reserve(nIDs)
	want := newRefCache(capacity)
	rng := rand.New(rand.NewSource(11))
	evictions := map[int]int{} // evictions a miss needed → count
	inPlace := 0
	for step := 0; step < steps; step++ {
		// Mostly ~1 KB records, with a tail of up to ~5 KB ones, so a
		// miss on the full cache evicts zero, one or several residents.
		size := 512 + rng.Intn(1024)
		if rng.Intn(8) == 0 {
			size = 2048 + rng.Intn(3072)
		}
		rec := RecordRef{ID: uint64(rng.Intn(nIDs)), Bytes: size}
		oracle := got.clone()
		if s := oracle.lookup(rec.ID); s >= 0 && oracle.slots[s].bytes == int64(size) {
			oracle.unlink(s)
			oracle.pushFront(s)
		} else {
			if s >= 0 {
				oracle.remove(s)
			}
			n := 0
			for oracle.used+int64(size) > oracle.capacity {
				oracle.remove(oracle.tail)
				n++
			}
			oracle.insert(rec.ID, int64(size))
			evictions[min(n, 2)]++
			if s < 0 && n > 0 {
				inPlace++
			}
		}
		if g, w := got.Touch(rec), want.access(rec); g != w {
			t.Fatalf("step %d: Touch(%+v) = %v, reference says %v", step, rec, g, w)
		}
		if !got.sameState(oracle) {
			t.Fatalf("step %d: Touch(%+v) left a state the remove-then-insert sequence does not", step, rec)
		}
		if step%1000 == 0 {
			requireSameRecency(t, step, got, want)
		}
	}
	requireSameRecency(t, steps, got, want)
	for n := 0; n <= 2; n++ {
		if evictions[n] == 0 {
			t.Fatalf("no miss needed %d eviction(s); sizes do not exercise every case: %v", n, evictions)
		}
	}
	if inPlace < steps/10 {
		t.Fatalf("only %d of %d accesses took the in-place eviction", inPlace, steps)
	}
}

// clone deep-copies the cache.
func (c *LRUCache) clone() *LRUCache {
	cp := *c
	cp.slots = slices.Clone(c.slots)
	cp.free = slices.Clone(c.free)
	cp.direct = slices.Clone(c.direct)
	cp.table = slices.Clone(c.table)
	return &cp
}

// sameState reports whether two caches hold identical structures. Only
// the first len(slots) slots are compared: the arena past it is unused.
func (c *LRUCache) sameState(o *LRUCache) bool {
	return c.used == o.used && c.size == o.size && c.head == o.head && c.tail == o.tail &&
		c.hits == o.hits && c.misses == o.misses &&
		slices.Equal(c.slots, o.slots) && slices.Equal(c.free, o.free) &&
		slices.Equal(c.direct, o.direct) && slices.Equal(c.table, o.table)
}
