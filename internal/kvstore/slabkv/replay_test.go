package slabkv

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
)

func TestReplayReadyAndQuiesce(t *testing.T) {
	s := New(0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key%02d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(100))
	}
	s.Quiesce() // no deferred work; must be a no-op
	if !s.ReplayReady() {
		t.Fatal("plain slab store not ReplayReady")
	}
	if s.Len() != 50 {
		t.Fatalf("Quiesce changed residency: len=%d", s.Len())
	}
}

// TestStaticTraceMatchesLiveOps pins the constant slab trace: Get costs
// two dependent loads, Put three, exactly what the live path reports.
func TestStaticTraceMatchesLiveOps(t *testing.T) {
	s := New(0)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
		s.PutID(keys[i], kvstore.KeyID(keys[i]), kvstore.Sized(100))
	}
	for _, k := range keys {
		id := kvstore.KeyID(k)
		getChases, putChases, ok := s.StaticTrace(k, id)
		if !ok {
			t.Fatalf("StaticTrace(%q) not ok on resident key", k)
		}
		if _, tr := s.GetID(k, id); tr.Chases != getChases {
			t.Fatalf("key %q: live Get chases %d, static %d", k, tr.Chases, getChases)
		}
		if tr := s.PutID(k, id, kvstore.Sized(100)); tr.Chases != putChases {
			t.Fatalf("key %q: live Put chases %d, static %d", k, tr.Chases, putChases)
		}
	}
}

func TestStaticTraceRejectsMissingAndMismatched(t *testing.T) {
	s := New(0)
	s.PutID("here", kvstore.KeyID("here"), kvstore.Sized(10))
	if _, _, ok := s.StaticTrace("gone", kvstore.KeyID("gone")); ok {
		t.Error("StaticTrace ok on missing key")
	}
	if _, _, ok := s.StaticTrace("here", 12345); ok {
		t.Error("StaticTrace ok on mismatched record ID")
	}
}

// TestReplayPausesIsZero pins the pauseless engine's side of the
// kernel's pause hook: no pause model and a charge that never stalls.
func TestReplayPausesIsZero(t *testing.T) {
	s := New(0)
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(10))
	if accum, ok := s.PauseAccum(); ok || accum != 0 {
		t.Fatalf("pauseless store reports accumulator %d, %t", accum, ok)
	}
	for i := 0; i < 1000; i++ {
		if ns := s.ChargeReplay(100 << 10); ns != 0 {
			t.Fatalf("charge %d stalled %v ns", i, ns)
		}
	}
	if ns := s.TakePauseNs(); ns != 0 {
		t.Fatalf("charges left a pause of %v ns", ns)
	}
}

// TestRelaidJournalsInserts pins the slab journal: after a drain it
// names exactly the items inserted since, that are still resident; an
// overwrite, a remove or a miss journals nothing; an eviction, or a
// journal past a quarter of the items, latches the change unbounded
// until the next drain. MissTrace matches a live Get that misses.
func TestRelaidJournalsInserts(t *testing.T) {
	put := func(s *Store, key string) { s.PutID(key, kvstore.KeyID(key), kvstore.Sized(100)) }
	drain := func(s *Store) (keys []string, bounded bool) {
		bounded = s.RelaidBounded()
		if got := s.Relaid(func(key string, id uint64) {
			if id != kvstore.KeyID(key) {
				t.Fatalf("journal reported %q with ID %d", key, id)
			}
			keys = append(keys, key)
		}); got != bounded {
			t.Fatalf("Relaid returned %t, RelaidBounded said %t", got, bounded)
		}
		return keys, bounded
	}
	s := New(0)
	for i := 0; i < 40; i++ {
		put(s, fmt.Sprintf("key%02d", i))
	}
	if _, bounded := drain(s); bounded {
		t.Fatal("the load phase's 40 inserts left the journal bounded")
	}
	put(s, "key03") // overwrite
	s.DelID("key04", kvstore.KeyID("key04"))
	s.GetID("nope", kvstore.KeyID("nope"))
	put(s, "key04") // re-insert
	put(s, "new")
	s.DelID("new", kvstore.KeyID("new"))
	if keys, bounded := drain(s); !bounded || fmt.Sprint(keys) != "[key04]" {
		t.Fatalf("journal after one re-insert: %v bounded=%t, want [key04]", keys, bounded)
	}
	if keys, bounded := drain(s); !bounded || len(keys) != 0 {
		t.Fatalf("second drain: %v bounded=%t, want nothing", keys, bounded)
	}
	for i := 0; i <= s.Len()/4; i++ {
		put(s, fmt.Sprintf("more%02d", i))
	}
	if _, bounded := drain(s); bounded {
		t.Fatal("a journal past a quarter of the items stayed bounded")
	}

	chases, ok := s.MissTrace()
	if _, tr := s.GetID("nope", kvstore.KeyID("nope")); !ok || tr.Found || tr.Chases != chases || tr.Touched != 0 {
		t.Fatalf("MissTrace (%d, %t), live miss %+v", chases, ok, tr)
	}

	// A store full at 40 items: the 41st insert evicts one.
	chunk := int64(s.classes[s.classFor(len("key00")+100+itemOverheadB)].chunkSize)
	lim := New(40 * chunk)
	for i := 0; i < 40; i++ {
		put(lim, fmt.Sprintf("key%02d", i))
	}
	drain(lim)
	put(lim, "key40")
	if lim.Evictions() != 1 {
		t.Fatalf("%d evictions, want the 41st insert's one", lim.Evictions())
	}
	if _, bounded := drain(lim); bounded {
		t.Fatal("an eviction left the journal bounded")
	}
}
