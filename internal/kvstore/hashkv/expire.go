package hashkv

import "mnemo/internal/kvstore"

// Redis-style key expiration. TTLs are expressed in logical operations
// (the stores live on the deployment's virtual clock, not wall time):
// EXPIRE key n lapses after n further operations. Expired keys are
// reclaimed two ways, as in Redis:
//
//   - lazily, when an operation touches the key;
//   - actively, by an expiration cycle that samples a few volatile keys
//     per operation and deletes the lapsed ones (Redis runs this from
//     serverCron; amortizing it per operation keeps the store
//     single-threaded and deterministic).

// activeSamplesPerOp is how many volatile keys the active cycle checks
// per operation (Redis checks 20 per 100 ms cycle; per-op amortization
// uses a smaller constant).
const activeSamplesPerOp = 2

// opTick advances logical time and runs one active-expiration step.
func (s *Store) opTick() {
	s.ops++
	s.activeExpireStep()
}

// Expire sets the key's TTL to ttlOps operations from now, returning
// false if the key does not exist. ttlOps must be positive (Redis's
// EXPIRE with non-positive TTL deletes the key; callers wanting that
// should Del explicitly).
func (s *Store) Expire(key string, ttlOps int64) bool {
	if ttlOps <= 0 {
		panic("hashkv: Expire needs a positive TTL")
	}
	e, _ := s.find(key, kvstore.KeyID(key))
	if e == nil || s.lapsed(e) {
		return false
	}
	e.expireAt = s.ops + ttlOps
	s.volatileKeys[e.key] = struct{}{}
	return true
}

// Persist clears the key's TTL (Redis PERSIST), returning whether a TTL
// was removed.
func (s *Store) Persist(key string) bool {
	e, _ := s.find(key, kvstore.KeyID(key))
	if e == nil || e.expireAt == 0 || s.lapsed(e) {
		return false
	}
	e.expireAt = 0
	delete(s.volatileKeys, e.key)
	return true
}

// TTLRemaining reports the operations left before expiry: (n, true) for a
// volatile live key, (0, true) for a live key without TTL, (0, false)
// when missing or lapsed.
func (s *Store) TTLRemaining(key string) (int64, bool) {
	e, _ := s.find(key, kvstore.KeyID(key))
	if e == nil || s.lapsed(e) {
		return 0, false
	}
	if e.expireAt == 0 {
		return 0, true
	}
	return e.expireAt - s.ops, true
}

// Expirations reports how many keys have lapsed and been reclaimed.
func (s *Store) Expirations() int64 { return s.expirations }

// lapsed reports whether the entry's TTL has passed.
func (s *Store) lapsed(e *entry) bool {
	return e.expireAt > 0 && s.ops >= e.expireAt
}

// reapIfLapsed deletes the entry if expired, returning true if reaped.
// The caller must pass the entry's key.
func (s *Store) reapIfLapsed(e *entry) bool {
	if e == nil || !s.lapsed(e) {
		return false
	}
	s.removeEntry(e.key, e.id)
	delete(s.volatileKeys, e.key)
	s.expirations++
	return true
}

// activeExpireStep samples a few volatile keys and reaps the lapsed ones.
// Map iteration order provides the sampling randomness, as Redis's
// random-key sampling does.
func (s *Store) activeExpireStep() {
	if len(s.volatileKeys) == 0 {
		return
	}
	checked := 0
	for key := range s.volatileKeys {
		if checked >= activeSamplesPerOp {
			break
		}
		checked++
		e, _ := s.find(key, kvstore.KeyID(key))
		if e == nil {
			delete(s.volatileKeys, key) // key was deleted via Del
			continue
		}
		s.reapIfLapsed(e)
	}
}

// removeEntry unlinks a key from whichever table holds it, updating the
// byte accounting. It is the shared core of Del and expiration.
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
