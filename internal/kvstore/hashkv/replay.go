package hashkv

import "mnemo/internal/kvstore"

// Batched-replay capability (kvstore.BatchReplayer, DESIGN.md §12).
//
// The dict's only dynamic steady-state behaviour is incremental rehash:
// while a rehash is in flight, find walks both tables and every
// operation migrates a bucket, so chase counts drift from op to op.
// Quiesce drains the rehash (and any follow-up expansion it uncovers),
// after which a trace depends only on the resident chain layout — reads
// and overwrites of resident keys never restructure the table, and
// inserts and removes restructure only their own chain (Relaid).

// Quiesce implements kvstore.BatchReplayer: it drains any in-flight
// incremental rehash and keeps expanding until the load factor is below
// 1, so no later Put can trigger a rehash. The allocation stalls of the
// expansions accrue in pauseNs exactly as organic rehashes would.
func (s *Store) Quiesce() {
	for {
		for s.rehashing() {
			s.rehashStep()
		}
		if s.ht[0].used < len(s.ht[0].buckets) {
			return
		}
		s.maybeExpand()
	}
}

// ReplayReady implements kvstore.BatchReplayer.
func (s *Store) ReplayReady() bool {
	return !s.rehashing() && s.ht[0].used < len(s.ht[0].buckets)
}

// StaticTrace implements kvstore.BatchReplayer. For a resident key both
// Get and Put pay the find walk plus one extra dereference (the value
// object for reads, the stored entry for writes).
func (s *Store) StaticTrace(key string, id uint64) (getChases, putChases int, ok bool) {
	e, chases := s.find(key, id)
	if e == nil {
		return 0, 0, false
	}
	return chases + 1, chases + 1, true
}

// MissTrace implements kvstore.BatchReplayer: a miss walks the key's
// whole bucket chain, whose length the resident keys decide.
func (s *Store) MissTrace() (int, bool) { return 0, false }

// ChargeReplay implements kvstore.BatchReplayer: the quiesced dict has
// no steady-state stall source (rehash hiccups only fire on growth).
func (s *Store) ChargeReplay(int) float64 { return 0 }

// PauseAccum implements kvstore.BatchReplayer: no pause model.
func (s *Store) PauseAccum() (int64, bool) { return 0, false }

// SetPauseAccum implements kvstore.BatchReplayer; there is nothing to
// restore.
func (s *Store) SetPauseAccum(int64) {}

// A key's static trace is its position in its bucket chain, so an
// insert (at the chain head) or a remove shifts exactly the traces of
// its bucket mates. The journal therefore records ht[0] bucket indices,
// and Relaid walks those chains. A rehash rebuilds every chain, so it
// latches the change unbounded until a Relaid call finds the table
// settled; so does a journal past a quarter of the buckets, where
// walking the chains would stop being cheaper than re-probing every key.

// journalChain records that the chain of ht[0] bucket b changed. While
// a rehash is in flight the journal is already latched unbounded, so
// the indices of inserts into ht[1] are never recorded. A chain changed
// again before any other is recorded once; a chain changed again later
// is recorded, and reported, twice.
func (s *Store) journalChain(b uint64) {
	if s.relaidAll || (len(s.relaid) > 0 && s.relaid[len(s.relaid)-1] == b) {
		return
	}
	if len(s.relaid) >= len(s.ht[0].buckets)/4 {
		s.relaidAll, s.relaid = true, s.relaid[:0]
		return
	}
	s.relaid = append(s.relaid, b)
}

// Relaid implements kvstore.BatchReplayer: it reports every entry of
// each journaled chain. An unfinished rehash keeps the journal latched
// unbounded for the next call too.
func (s *Store) Relaid(fn func(key string, id uint64)) bool {
	bounded := !s.relaidAll // latched for as long as a rehash is in flight
	if bounded {
		t := s.ht[0]
		for _, b := range s.relaid {
			for e := t.buckets[b]; e != nil; e = e.next {
				fn(e.key, e.id)
			}
		}
	}
	s.relaid, s.relaidAll = s.relaid[:0], s.rehashing()
	return bounded
}

// RelaidBounded implements kvstore.BatchReplayer.
func (s *Store) RelaidBounded() bool { return !s.relaidAll }

var _ kvstore.BatchReplayer = (*Store)(nil)
