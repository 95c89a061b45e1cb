// Package slabkv implements the Memcached-like engine: a slab allocator
// with geometric size classes, a per-class LRU for eviction, and an item
// index. Memcached's defining performance property for this study is that
// its worker threads keep many memory operations in flight, so most of a
// request's memory stall time is overlapped with other requests — the
// engine's profile models that as a high memory-level parallelism,
// producing the "barely influenced by SlowMem" behaviour of Fig 8b/9.
package slabkv

import (
	"fmt"

	"mnemo/internal/kvstore"
)

// Profile is the calibrated engine profile (DESIGN.md §5): low CPU cost
// per byte (memcached's zero-parse binary item path) and MLP ≈ 10 from
// the worker-thread pool, so even a SlowMem-only deployment stays within
// ~8% of FastMem-only throughput.
var Profile = kvstore.EngineProfile{
	Name:               "memcachedlike",
	CPUBaseNs:          5_000,
	CPUPerByteNs:       0.55,
	MLP:                10,
	WritePenalty:       0.3,
	ReadAmplification:  1,
	WriteAmplification: 1,
}

// Slab class layout: classes grow geometrically from MinChunk by Factor
// until MaxChunk, matching memcached's default -f 1.25 growth.
const (
	MinChunk      = 96
	Factor        = 1.25
	MaxChunk      = 1 << 20 // memcached -I 1m
	itemOverheadB = 56      // item header + key pointer + CAS
)

type item struct {
	key        string
	id         uint64
	val        kvstore.Value
	class      int
	prev, next *item // LRU list links within the class
}

type slabClass struct {
	chunkSize int
	head      *item // most recently used
	tail      *item // least recently used
	items     int
}

func (c *slabClass) pushFront(it *item) {
	it.prev = nil
	it.next = c.head
	if c.head != nil {
		c.head.prev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
	c.items++
}

func (c *slabClass) remove(it *item) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		c.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		c.tail = it.prev
	}
	it.prev, it.next = nil, nil
	c.items--
}

func (c *slabClass) bump(it *item) {
	if c.head == it {
		return
	}
	c.remove(it)
	c.pushFront(it)
}

// Store is the Memcached-like engine. Not safe for concurrent use.
type Store struct {
	classes   []slabClass
	index     map[string]*item
	memLimit  int64 // total chunk bytes allowed; 0 = unlimited
	chunkUsed int64
	dataBytes int64
	pauseNs   float64
	evictions int64
}

// New creates a store with the given memory limit in bytes (0 =
// unlimited). The limit counts chunk bytes, as memcached's -m does.
func New(memLimit int64) *Store {
	if memLimit < 0 {
		panic("slabkv: negative memory limit")
	}
	s := &Store{index: make(map[string]*item), memLimit: memLimit}
	for size := MinChunk; ; size = int(float64(size) * Factor) {
		if size > MaxChunk {
			break
		}
		s.classes = append(s.classes, slabClass{chunkSize: size})
	}
	// Final class at exactly MaxChunk so max-size items fit.
	if s.classes[len(s.classes)-1].chunkSize != MaxChunk {
		s.classes = append(s.classes, slabClass{chunkSize: MaxChunk})
	}
	return s
}

// Fits reports whether an item with the given key and value size fits
// the largest chunk. PutID refuses exactly the items that do not, so a
// record that does not fit is never stored.
func Fits(key string, size int) bool { return len(key)+size+itemOverheadB <= MaxChunk }

// classFor returns the smallest class whose chunk fits need bytes, which
// must not exceed MaxChunk (the last class).
func (s *Store) classFor(need int) int {
	for i := range s.classes {
		if s.classes[i].chunkSize >= need {
			return i
		}
	}
	panic(fmt.Sprintf("slabkv: item of %d bytes exceeds max chunk %d", need, MaxChunk))
}

// Len implements kvstore.Store.
func (s *Store) Len() int { return len(s.index) }

// DataBytes implements kvstore.Store.
func (s *Store) DataBytes() int64 { return s.dataBytes }

// ChunkBytes reports allocator bytes in use (≥ DataBytes: slab padding).
func (s *Store) ChunkBytes() int64 { return s.chunkUsed }

// Evictions reports how many items were evicted to make room.
func (s *Store) Evictions() int64 { return s.evictions }

// TakePauseNs implements kvstore.Store.
func (s *Store) TakePauseNs() float64 {
	p := s.pauseNs
	s.pauseNs = 0
	return p
}

// GetID implements kvstore.Store.
func (s *Store) GetID(key string, id uint64) (kvstore.Value, kvstore.OpTrace) {
	// Index probe + item header: memcached's hash walk is O(1) with its
	// power-of-two table; two dependent loads model it.
	tr := kvstore.OpTrace{Kind: kvstore.Read, RecordID: id, Chases: 2}
	it, ok := s.index[key]
	if !ok {
		return kvstore.Value{}, tr
	}
	s.classes[it.class].bump(it)
	tr.Found = true
	tr.Touched = kvstore.Amplify(it.val.Size, Profile.ReadAmplification)
	return it.val, tr
}

// PutID implements kvstore.Store.
func (s *Store) PutID(key string, id uint64, v kvstore.Value) kvstore.OpTrace {
	tr := kvstore.OpTrace{Kind: kvstore.Write, RecordID: id, Chases: 3,
		Touched: kvstore.Amplify(v.Size, Profile.WriteAmplification)}
	if !Fits(key, v.Size) {
		// Oversized item: memcached rejects it (SERVER_ERROR object too
		// large); we mirror that by reporting not-stored.
		return tr
	}
	cls := s.classFor(len(key) + v.Size + itemOverheadB)
	if it, ok := s.index[key]; ok {
		tr.Found = true
		oldChunk := int64(s.classes[it.class].chunkSize)
		if it.class == cls {
			s.dataBytes += int64(v.Size) - int64(it.val.Size)
			it.val = v
			s.classes[cls].bump(it)
			return tr
		}
		// Class change: free old chunk, allocate anew below.
		s.classes[it.class].remove(it)
		delete(s.index, key)
		s.chunkUsed -= oldChunk
		s.dataBytes -= int64(it.val.Size)
	}
	chunk := int64(s.classes[cls].chunkSize)
	for s.memLimit > 0 && s.chunkUsed+chunk > s.memLimit {
		if !s.evictFrom(cls) {
			break // nothing evictable in class; store anyway (grow)
		}
	}
	it := &item{key: key, id: id, val: v, class: cls}
	s.classes[cls].pushFront(it)
	s.index[key] = it
	s.chunkUsed += chunk
	s.dataBytes += int64(v.Size)
	return tr
}

// evictFrom drops the LRU item of the class (memcached evicts within the
// class it needs a chunk from). Returns false when the class is empty.
func (s *Store) evictFrom(cls int) bool {
	victim := s.classes[cls].tail
	if victim == nil {
		return false
	}
	s.classes[cls].remove(victim)
	delete(s.index, victim.key)
	s.chunkUsed -= int64(s.classes[cls].chunkSize)
	s.dataBytes -= int64(victim.val.Size)
	s.evictions++
	s.pauseNs += 2_000 // lock hold while unlinking + freeing
	return true
}

// DelID implements kvstore.Store.
func (s *Store) DelID(key string, id uint64) kvstore.OpTrace {
	tr := kvstore.OpTrace{Kind: kvstore.Delete, RecordID: id, Chases: 2}
	it, ok := s.index[key]
	if !ok {
		return tr
	}
	s.classes[it.class].remove(it)
	delete(s.index, key)
	s.chunkUsed -= int64(s.classes[it.class].chunkSize)
	s.dataBytes -= int64(it.val.Size)
	tr.Found = true
	return tr
}

var _ kvstore.Store = (*Store)(nil)
