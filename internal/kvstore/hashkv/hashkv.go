// Package hashkv implements the Redis-like engine: a chained hash table
// ("dict") with two tables and incremental rehashing, served by a single
// request lane, exactly the structure Redis uses for its main keyspace.
//
// The engine reproduces the request-path properties that matter to the
// paper's measurements: every operation walks the bucket chain (pointer
// chases against the tier holding the data), touches the value bytes once
// (Redis copies the value into the client output buffer), and table
// growth causes brief service hiccups (the allocation stall of the new
// bucket array plus the per-operation migration step), which show up in
// the tail latencies of Fig 8d/8e but not in the averages.
package hashkv

import (
	"mnemo/internal/kvstore"
)

// Profile is the calibrated engine profile (see DESIGN.md §5). With
// ≈100 KB thumbnails this yields ≈117 µs/op on FastMem and ≈166 µs/op on
// SlowMem — the ≈1.4× spread of the paper's Fig 5a — and ≈9 µs/op for
// 1 KB captions, in line with real Redis throughput over loopback.
var Profile = kvstore.EngineProfile{
	Name:               "redislike",
	CPUBaseNs:          8_000, // command parse, event loop, reply header
	CPUPerByteNs:       1.0,   // value copy through output buffer + TCP stack
	MLP:                1,     // single-threaded server: no overlap
	WritePenalty:       0.3,   // writes land in store buffers, rarely stall
	ReadAmplification:  1,
	WriteAmplification: 1,
}

type entry struct {
	key  string
	id   uint64
	val  kvstore.Value
	next *entry
}

type table struct {
	buckets []*entry
	used    int
}

func newTable(size int) *table { return &table{buckets: make([]*entry, size)} }

func (t *table) mask() uint64 { return uint64(len(t.buckets) - 1) }

// Store is the Redis-like engine. Not safe for concurrent use.
type Store struct {
	ht        [2]*table
	rehashIdx int // -1 when not rehashing; else next bucket of ht[0] to migrate
	dataBytes int64
	pauseNs   float64

	// relaid journals the ht[0] buckets whose chains an insert or a
	// remove reshaped since the last Relaid; relaidAll latches that the
	// change is unbounded (replay.go).
	relaid    []uint64
	relaidAll bool
}

const initialTableSize = 16

// New creates an empty store.
func New() *Store {
	return &Store{ht: [2]*table{newTable(initialTableSize), nil}, rehashIdx: -1}
}

// Len implements kvstore.Store.
func (s *Store) Len() int {
	n := s.ht[0].used
	if s.ht[1] != nil {
		n += s.ht[1].used
	}
	return n
}

// DataBytes implements kvstore.Store.
func (s *Store) DataBytes() int64 { return s.dataBytes }

// TakePauseNs implements kvstore.Store.
func (s *Store) TakePauseNs() float64 {
	p := s.pauseNs
	s.pauseNs = 0
	return p
}

// rehashing reports whether incremental rehash is in progress.
func (s *Store) rehashing() bool { return s.rehashIdx >= 0 }

// startRehash begins migration into a table of the given size.
func (s *Store) startRehash(size int) {
	s.ht[1] = newTable(size)
	s.rehashIdx = 0
	s.relaidAll = true // every chain is rebuilt
	// Allocating and zeroing the new bucket array stalls the event loop
	// briefly — ~10 ns per bucket pointer is a conservative page-touch
	// cost. This is the rehash hiccup visible in Redis tail latencies.
	s.pauseNs += float64(size) * 10
}

// rehashStep migrates one non-empty bucket from ht[0] to ht[1], the same
// amortization Redis performs on every dict operation.
func (s *Store) rehashStep() {
	if !s.rehashing() {
		return
	}
	t0, t1 := s.ht[0], s.ht[1]
	// Skip up to a bounded run of empty buckets per step (Redis uses 10×n).
	emptyVisits := 0
	for s.rehashIdx < len(t0.buckets) && t0.buckets[s.rehashIdx] == nil {
		s.rehashIdx++
		emptyVisits++
		if emptyVisits > 10 {
			return
		}
	}
	if s.rehashIdx >= len(t0.buckets) {
		s.finishRehash()
		return
	}
	for e := t0.buckets[s.rehashIdx]; e != nil; {
		next := e.next
		idx := e.id & t1.mask()
		e.next = t1.buckets[idx]
		t1.buckets[idx] = e
		t0.used--
		t1.used++
		e = next
	}
	t0.buckets[s.rehashIdx] = nil
	s.rehashIdx++
	if t0.used == 0 {
		s.finishRehash()
	}
}

func (s *Store) finishRehash() {
	s.ht[0] = s.ht[1]
	s.ht[1] = nil
	s.rehashIdx = -1
}

// maybeExpand starts a rehash when the load factor reaches 1.
func (s *Store) maybeExpand() {
	if s.rehashing() {
		return
	}
	if s.ht[0].used >= len(s.ht[0].buckets) {
		size := len(s.ht[0].buckets) * 2
		for size < s.ht[0].used*2 {
			size *= 2
		}
		s.startRehash(size)
	}
}

// find locates the entry and reports the pointer chases spent walking.
func (s *Store) find(key string, id uint64) (*entry, int) {
	chases := 0
	for ti := 0; ti < 2; ti++ {
		t := s.ht[ti]
		if t == nil {
			break
		}
		chases++ // bucket head load
		for e := t.buckets[id&t.mask()]; e != nil; e = e.next {
			chases++
			if e.id == id && e.key == key {
				return e, chases
			}
		}
		if !s.rehashing() {
			break
		}
	}
	return nil, chases
}

// GetID implements kvstore.Store.
func (s *Store) GetID(key string, id uint64) (kvstore.Value, kvstore.OpTrace) {
	s.rehashStep()
	e, chases := s.find(key, id)
	tr := kvstore.OpTrace{Kind: kvstore.Read, RecordID: id, Chases: chases}
	if e == nil {
		return kvstore.Value{}, tr
	}
	tr.Found = true
	tr.Chases++ // dereference the value object
	tr.Touched = kvstore.Amplify(e.val.Size, Profile.ReadAmplification)
	return e.val, tr
}

// PutID implements kvstore.Store.
func (s *Store) PutID(key string, id uint64, v kvstore.Value) kvstore.OpTrace {
	s.rehashStep()
	s.maybeExpand()
	e, chases := s.find(key, id)
	tr := kvstore.OpTrace{Kind: kvstore.Write, RecordID: id, Chases: chases + 1,
		Touched: kvstore.Amplify(v.Size, Profile.WriteAmplification)}
	if e != nil {
		s.dataBytes += int64(v.Size) - int64(e.val.Size)
		e.val = v
		tr.Found = true
		return tr
	}
	// Insert into the rehash-target table (ht[1] if rehashing).
	t := s.ht[0]
	if s.rehashing() {
		t = s.ht[1]
	}
	idx := id & t.mask()
	t.buckets[idx] = &entry{key: key, id: id, val: v, next: t.buckets[idx]}
	t.used++
	s.journalChain(idx)
	s.dataBytes += int64(v.Size)
	return tr
}

// DelID implements kvstore.Store.
func (s *Store) DelID(key string, id uint64) kvstore.OpTrace {
	s.rehashStep()
	e, chases := s.find(key, id)
	tr := kvstore.OpTrace{Kind: kvstore.Delete, RecordID: id, Chases: chases}
	if e == nil {
		return tr
	}
	s.removeEntry(key, id)
	tr.Found = true
	return tr
}

// removeEntry unlinks a key from whichever table holds it, updating the
// byte accounting.
func (s *Store) removeEntry(key string, id uint64) bool {
	for ti := 0; ti < 2; ti++ {
		t := s.ht[ti]
		if t == nil {
			break
		}
		idx := id & t.mask()
		var prev *entry
		for e := t.buckets[idx]; e != nil; e = e.next {
			if e.id == id && e.key == key {
				if prev == nil {
					t.buckets[idx] = e.next
				} else {
					prev.next = e.next
				}
				t.used--
				s.dataBytes -= int64(e.val.Size)
				s.journalChain(idx)
				return true
			}
			prev = e
		}
		if !s.rehashing() {
			break
		}
	}
	return false
}

var _ kvstore.Store = (*Store)(nil)
