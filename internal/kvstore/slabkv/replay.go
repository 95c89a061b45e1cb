package slabkv

import "mnemo/internal/kvstore"

// Batched-replay capability (kvstore.BatchReplayer, DESIGN.md §12).
//
// The slab store's traces are constant by construction — Get costs two
// dependent loads, Put three — and a same-size overwrite stays in its
// slab class, so no eviction can fire while replaying a fixed dataset.
// The LRU bumps a replay would perform are behaviourally invisible at
// constant residency (eviction order only matters when something is
// evicted), so skipping them preserves every simulated quantity.

// Quiesce implements kvstore.BatchReplayer; the slab store defers no
// background work.
func (s *Store) Quiesce() {}

// ReplayReady implements kvstore.BatchReplayer: the slab store's traces
// never depend on dynamic state.
func (s *Store) ReplayReady() bool { return true }

// StaticTrace implements kvstore.BatchReplayer.
func (s *Store) StaticTrace(key string, id uint64) (getChases, putChases int, ok bool) {
	it, found := s.index[key]
	if !found || it.id != id {
		return 0, 0, false
	}
	return 2, 3, true
}

// ChargeReplay implements kvstore.BatchReplayer: eviction stalls only
// fire under a memory limit with residency growth, which a fixed-dataset
// replay never causes.
func (s *Store) ChargeReplay(int) float64 { return 0 }

// PauseAccum implements kvstore.BatchReplayer: no pause model.
func (s *Store) PauseAccum() (int64, bool) { return 0, false }

// SetPauseAccum implements kvstore.BatchReplayer; there is nothing to
// restore.
func (s *Store) SetPauseAccum(int64) {}

// MissTrace implements kvstore.BatchReplayer: a miss is the same two
// dependent loads as a hit (index probe, item header), touches no item
// and bumps no LRU.
func (s *Store) MissTrace() (int, bool) { return 2, true }

// With constant traces, an insert or remove moves no other key's trace:
// the journal only has to name the inserted items, whose rows were
// absent. An eviction removes keys the caller never asked to remove, so
// it latches the change unbounded; so does a journal past a quarter of
// the items (the whole load phase, for one), where re-probing every key
// costs about as much as the journal.

// journal records that item it was inserted.
func (s *Store) journal(it *item) {
	if s.relaidAll {
		return
	}
	if len(s.relaid) >= len(s.index)/4 {
		s.relaidAll, s.relaid = true, s.relaid[:0]
		return
	}
	s.relaid = append(s.relaid, it)
}

// Relaid implements kvstore.BatchReplayer: it reports every journaled
// item that is still resident.
func (s *Store) Relaid(fn func(key string, id uint64)) bool {
	bounded := !s.relaidAll
	if bounded {
		for _, it := range s.relaid {
			if s.index[it.key] == it {
				fn(it.key, it.id)
			}
		}
	}
	clear(s.relaid)
	s.relaid, s.relaidAll = s.relaid[:0], false
	return bounded
}

// RelaidBounded implements kvstore.BatchReplayer.
func (s *Store) RelaidBounded() bool { return !s.relaidAll }

var _ kvstore.BatchReplayer = (*Store)(nil)
