package memsim

// LRUCache models the testbed's shared last-level cache at record
// granularity: a record is either fully resident or absent. Record-level
// rather than line-level granularity keeps the model O(1) per access
// while preserving the first-order effect the paper's measurements embed
// — repeatedly touched small hot records are served at cache speed, large
// or cold records pay full memory cost.
//
// The cache sits on the replay hot path (one access per request), so it
// is built from flat slices instead of container/list plus a built-in
// map: resident records live in a slot arena threaded into an intrusive
// doubly-linked recency list, and record IDs map to slots through one of
// two indexes, chosen by the ID's value:
//
//   - IDs below the size declared by Reserve are dense record indices
//     and address a handle array directly — a lookup is one load, an
//     eviction clears one handle. This is how the server's LLC walker
//     addresses records (by dataset record index).
//   - every other ID goes through an open-addressed table with linear
//     probing and backward-shift deletion. Such IDs are expected to be
//     FNV-64a hashes already (kvstore.KeyID), so the table indexes them
//     without re-hashing. A cache that never called Reserve sends every
//     ID here.
//
// The two ranges are disjoint, so one cache may hold both kinds; what a
// caller must not do is address one record under both a dense and a
// hashed ID. Steady-state accesses — hits and miss/evict cycles alike —
// allocate nothing, and neither does Flush.
type LRUCache struct {
	capacity int64
	used     int64

	slots []cacheSlot
	free  []int32 // recycled slot indices
	head  int32   // most recently used, -1 when empty
	tail  int32   // least recently used, -1 when empty
	size  int     // resident records

	direct []int32 // reserved IDs: direct[id] = slot index, -1 = absent
	table  []int32 // other IDs: open-addressed index; -1 = empty, else slot index
	mask   uint64

	hits, misses int64
}

type cacheSlot struct {
	id         uint64
	bytes      int64
	prev, next int32  // intrusive recency list, -1 terminated
	pos        uint32 // probe-table position (hashed IDs only), kept in sync by moves
}

// minTableSize keeps the probe table a power of two; it doubles whenever
// residency reaches half the table, bounding probe sequences.
const minTableSize = 64

// NewLRUCache creates a cache with the given byte capacity and no
// reserved ID range: every ID is looked up through the probe table.
func NewLRUCache(capacity int64) *LRUCache {
	if capacity <= 0 {
		panic("memsim: cache capacity must be positive")
	}
	c := &LRUCache{capacity: capacity, head: -1, tail: -1}
	c.resetTable(minTableSize)
	return c
}

// Reserve empties the cache and declares IDs [0, n) to be dense record
// indices, looked up through a directly indexed handle array of n
// entries instead of the probe table. IDs at or above n keep the probe
// table. Reserve(0) returns the cache to hashed-only addressing.
func (c *LRUCache) Reserve(n int) {
	c.Flush()
	if n == len(c.direct) {
		return // Flush left every handle cleared
	}
	c.direct = emptyIndex(n)
}

// dense reports whether id lies in the reserved, directly indexed range.
func (c *LRUCache) dense(id uint64) bool { return id < uint64(len(c.direct)) }

// emptyIndex returns an ID index of n entries, none of them occupied.
func emptyIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

func (c *LRUCache) resetTable(n int) {
	c.table = emptyIndex(n)
	c.mask = uint64(n - 1)
}

// findPos probes for id, returning its table position if resident or the
// position where it would be inserted.
func (c *LRUCache) findPos(id uint64) (pos uint64, found bool) {
	pos = id & c.mask
	for {
		s := c.table[pos]
		if s < 0 {
			return pos, false
		}
		if c.slots[s].id == id {
			return pos, true
		}
		pos = (pos + 1) & c.mask
	}
}

func (c *LRUCache) grow() {
	old := c.table
	c.resetTable(len(old) * 2)
	for _, s := range old {
		if s >= 0 {
			pos, _ := c.findPos(c.slots[s].id)
			c.table[pos] = s
			c.slots[s].pos = uint32(pos)
		}
	}
}

// tableDelete empties the table position pos and compacts the probe
// cluster behind it (backward-shift deletion), so lookups never need
// tombstones.
func (c *LRUCache) tableDelete(pos uint64) {
	i := pos
	for {
		c.table[i] = -1
		j := i
		for {
			j = (j + 1) & c.mask
			s := c.table[j]
			if s < 0 {
				return
			}
			h := c.slots[s].id & c.mask
			// Move the entry at j into the hole at i unless its home
			// position lies cyclically within (i, j] — in that case the
			// hole does not break its probe sequence.
			var move bool
			if j > i {
				move = h <= i || h > j
			} else {
				move = h <= i && h > j
			}
			if move {
				c.table[i] = s
				c.slots[s].pos = uint32(i)
				i = j
				break
			}
		}
	}
}

func (c *LRUCache) unlink(s int32) {
	sl := &c.slots[s]
	if sl.prev >= 0 {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next >= 0 {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

func (c *LRUCache) pushFront(s int32) {
	sl := &c.slots[s]
	sl.prev = -1
	sl.next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// lookup returns the slot holding id, or -1 when it is not resident.
func (c *LRUCache) lookup(id uint64) int32 {
	if c.dense(id) {
		return c.direct[id]
	}
	if pos, ok := c.findPos(id); ok {
		return c.table[pos]
	}
	return -1
}

// remove evicts the record in slot s. The slot remembers its own ID and
// probe-table position, so neither index is searched; the sanity checks
// keep index/list desyncs loud.
func (c *LRUCache) remove(s int32) {
	sl := &c.slots[s]
	if c.dense(sl.id) {
		if c.direct[sl.id] != s {
			panic("memsim: cache recency list out of sync with index")
		}
		c.direct[sl.id] = -1
	} else {
		if c.table[sl.pos] != s {
			panic("memsim: cache recency list out of sync with index")
		}
		c.tableDelete(uint64(sl.pos))
	}
	c.unlink(s)
	c.used -= sl.bytes
	c.size--
	c.free = append(c.free, s)
}

func (c *LRUCache) insert(id uint64, size int64) {
	var s int32
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, cacheSlot{})
		s = int32(len(c.slots) - 1)
	}
	sl := &c.slots[s] // pushFront links it
	sl.id, sl.bytes = id, size
	if c.dense(id) {
		c.direct[id] = s
	} else {
		// The threshold counts every resident, dense ones included, so
		// a mixed cache only ever over-sizes the table.
		if (c.size+1)*2 > len(c.table) {
			c.grow()
		}
		pos, _ := c.findPos(id)
		sl.pos = uint32(pos)
		c.table[pos] = s
	}
	c.pushFront(s)
	c.used += size
	c.size++
}

// Access records a touch of rec, counts it as a hit or a miss, and
// reports whether it was a hit. On a miss the record is inserted (if it
// fits at all) and cold entries are evicted LRU-first. Records larger
// than the whole cache never hit.
func (c *LRUCache) Access(rec RecordRef) bool {
	if c.Touch(rec) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Touch is Access without the hit/miss statistics: residency and
// recency change exactly as they would under Access, the counters do
// not. It serves callers that keep their own tallies — the server's LLC
// walker, whose bits are counted where a run is served — or credit them
// later (Credit).
func (c *LRUCache) Touch(rec RecordRef) bool {
	size := int64(rec.Bytes)
	if s := c.lookup(rec.ID); s >= 0 {
		if c.slots[s].bytes == size {
			if c.head != s {
				c.unlink(s)
				c.pushFront(s)
			}
			return true
		}
		// Size changed (record overwritten with a different value):
		// treat as a miss and reinsert below.
		c.remove(s)
	}
	if size > c.capacity {
		return false // streaming record, uncacheable
	}
	// Evict LRU-first until the record fits. The eviction that makes room
	// relabels the tail's slot to the record and moves it to the front
	// when both IDs are dense — the steady-state miss of the replay
	// kernel. That is the remove(tail)-then-insert outcome to the bit:
	// remove pushes the tail's slot on the free list and insert pops that
	// same slot, so slot indices, the free list, recency order, bytes
	// used and length all agree.
	for c.used+size > c.capacity {
		s := c.tail
		sl := &c.slots[s]
		if c.used-sl.bytes+size > c.capacity || !c.dense(rec.ID) || !c.dense(sl.id) {
			c.remove(s)
			continue
		}
		if c.direct[sl.id] != s {
			panic("memsim: cache recency list out of sync with index")
		}
		c.direct[sl.id] = -1
		c.direct[rec.ID] = s
		c.used += size - sl.bytes
		sl.id, sl.bytes = rec.ID, size
		if p := sl.prev; p >= 0 { // unlink the tail, push it on the front
			c.slots[p].next = -1
			c.tail = p
			sl.prev, sl.next = -1, c.head
			c.slots[c.head].prev = s
			c.head = s
		}
		return false
	}
	c.insert(rec.ID, size)
	return false
}

// Credit adds to the hit/miss statistics on behalf of accesses made
// through Touch.
func (c *LRUCache) Credit(hits, misses int64) {
	c.hits += hits
	c.misses += misses
}

// Remove invalidates a record, if present.
func (c *LRUCache) Remove(id uint64) {
	if s := c.lookup(id); s >= 0 {
		c.remove(s)
	}
}

// Flush empties the cache (used between baseline runs so each starts
// cold, as the paper's repeated fresh executions do). It walks the
// recency list clearing each resident's index entry, so it costs
// O(resident) whatever the reserved range, and allocates nothing. Both
// indexes keep their size, since the next run typically reaches similar
// residency.
func (c *LRUCache) Flush() {
	for s := c.head; s >= 0; s = c.slots[s].next {
		if sl := &c.slots[s]; c.dense(sl.id) {
			c.direct[sl.id] = -1
		} else {
			c.table[sl.pos] = -1
		}
	}
	c.slots = c.slots[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
	c.size = 0
	c.used = 0
}

// ResetStats zeroes the hit/miss counters without touching contents.
func (c *LRUCache) ResetStats() { c.hits, c.misses = 0, 0 }

// Used reports resident bytes.
func (c *LRUCache) Used() int64 { return c.used }

// Capacity reports the configured capacity.
func (c *LRUCache) Capacity() int64 { return c.capacity }

// Len reports the number of resident records.
func (c *LRUCache) Len() int { return c.size }

// Hits reports the number of accesses served from cache.
func (c *LRUCache) Hits() int64 { return c.hits }

// Misses reports the number of accesses that went to memory.
func (c *LRUCache) Misses() int64 { return c.misses }

// HitRate reports hits / (hits + misses), or 0 when no accesses occurred.
func (c *LRUCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
