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

// ReplayPauses implements kvstore.BatchReplayer: eviction stalls only
// fire under a memory limit with residency growth, which a fixed-dataset
// replay never causes.
func (s *Store) ReplayPauses() kvstore.PauseModel { return kvstore.PauseModel{} }

// SyncReplayAccum implements kvstore.BatchReplayer; the slab store has
// no steady-state pause accumulator to restore.
func (s *Store) SyncReplayAccum(int64) {}

// Relaid implements kvstore.BatchReplayer and always reports the change
// unbounded, so callers re-probe every key. With constant traces a
// journal of inserted keys would do, but no measured workload re-prices
// a slab store's table often enough for the journal to pay for itself.
func (s *Store) Relaid(func(key string, id uint64)) bool { return false }

var _ kvstore.BatchReplayer = (*Store)(nil)
