package hashkv

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
)

// populate inserts n fixed-size records and returns their keys.
func populate(s *Store, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.PutID(keys[i], kvstore.KeyID(keys[i]), kvstore.Sized(64))
	}
	return keys
}

func TestQuiesceDrainsRehash(t *testing.T) {
	s := New()
	keys := populate(s, 500) // well past the initial table, rehash in flight

	s.Quiesce()
	if s.rehashing() {
		t.Fatal("Quiesce left a rehash in flight")
	}
	if !s.ReplayReady() {
		t.Fatal("quiesced store not ReplayReady")
	}
	// Load factor is below 1, so no future Put of a resident key expands.
	if s.ht[0].used >= len(s.ht[0].buckets) {
		t.Fatalf("load factor ≥ 1 after Quiesce: %d/%d", s.ht[0].used, len(s.ht[0].buckets))
	}
	for _, k := range keys {
		if _, tr := s.GetID(k, kvstore.KeyID(k)); !tr.Found {
			t.Fatalf("key %q lost across Quiesce", k)
		}
	}
}

// TestStaticTraceMatchesLiveOps is the batched-replay contract: on a
// quiesced store, StaticTrace must predict the exact Chases a live
// GetID and PutID report, and those must be stable across repetition.
func TestStaticTraceMatchesLiveOps(t *testing.T) {
	s := New()
	keys := populate(s, 300)
	s.Quiesce()
	s.TakePauseNs() // drain quiesce stalls, as Load does

	for _, k := range keys {
		id := kvstore.KeyID(k)
		getChases, putChases, ok := s.StaticTrace(k, id)
		if !ok {
			t.Fatalf("StaticTrace(%q) not ok on resident key", k)
		}
		for rep := 0; rep < 2; rep++ {
			if _, tr := s.GetID(k, id); tr.Chases != getChases {
				t.Fatalf("key %q rep %d: live Get chases %d, static %d", k, rep, tr.Chases, getChases)
			}
			if tr := s.PutID(k, id, kvstore.Sized(64)); tr.Chases != putChases {
				t.Fatalf("key %q rep %d: live Put chases %d, static %d", k, rep, tr.Chases, putChases)
			}
		}
	}
}

func TestStaticTraceRejectsMissingAndMismatched(t *testing.T) {
	s := New()
	s.PutID("here", kvstore.KeyID("here"), kvstore.Sized(10))
	s.Quiesce()
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
	s := New()
	populate(s, 100)
	s.Quiesce()
	s.TakePauseNs() // drain the load's rehash pauses
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

// TestRelaidReportsReshapedChains pins the relayout journal: an insert
// reports its bucket mates and itself, a remove the rest of its chain,
// an overwrite nothing; a rehash — and a journal past its cap — reports
// unbounded until a call finds the table settled; and a drained journal
// reports nothing.
func TestRelaidReportsReshapedChains(t *testing.T) {
	s := New()
	keys := populate(s, 20)
	s.Quiesce()
	drain := func() (map[string]bool, bool) {
		got := map[string]bool{}
		ok := s.Relaid(func(key string, id uint64) {
			if id != kvstore.KeyID(key) {
				t.Fatalf("Relaid reported %q with id %#x", key, id)
			}
			got[key] = true
		})
		return got, ok
	}
	same := func(got map[string]bool, want ...string) bool {
		if len(got) != len(want) {
			return false
		}
		for _, k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if _, ok := drain(); ok {
		t.Fatal("the load's rehashes reported bounded")
	}
	if got, ok := drain(); !ok || len(got) != 0 {
		t.Fatalf("second call after draining: %v, %v; want nothing, bounded", got, ok)
	}

	// A new key landing in the chain of a resident one.
	mask := s.ht[0].mask()
	var x string
	var mates []string
	for i := 0; len(mates) == 0; i++ {
		x, mates = fmt.Sprintf("new%d", i), nil
		for _, k := range keys {
			if kvstore.KeyID(k)&mask == kvstore.KeyID(x)&mask {
				mates = append(mates, k)
			}
		}
	}
	s.PutID(x, kvstore.KeyID(x), kvstore.Sized(64))
	if got, ok := drain(); !ok || !same(got, append([]string{x}, mates...)...) {
		t.Fatalf("insert of %q reported %v, %v; want it and its bucket mates %v", x, got, ok, mates)
	}
	s.PutID(x, kvstore.KeyID(x), kvstore.Sized(64))
	s.GetID(mates[0], kvstore.KeyID(mates[0]))
	if got, ok := drain(); !ok || len(got) != 0 {
		t.Fatalf("overwrite and read reported %v, %v; want nothing", got, ok)
	}
	s.DelID(x, kvstore.KeyID(x))
	if got, ok := drain(); !ok || !same(got, mates...) {
		t.Fatalf("remove of %q reported %v, %v; want the rest of its chain %v", x, got, ok, mates)
	}

	// Back-to-back changes to one chain journal it once.
	s.PutID(x, kvstore.KeyID(x), kvstore.Sized(64))
	s.DelID(x, kvstore.KeyID(x))
	if len(s.relaid) != 1 {
		t.Fatalf("insert and remove of %q journaled %d chains, want 1", x, len(s.relaid))
	}
	if got, ok := drain(); !ok || !same(got, mates...) {
		t.Fatalf("insert and remove of %q reported %v, %v; want its chain %v", x, got, ok, mates)
	}

	// Past a quarter of the buckets in one journal: unbounded.
	chains := map[uint64]bool{}
	for _, k := range keys {
		if b := kvstore.KeyID(k) & mask; !chains[b] && len(chains) <= len(s.ht[0].buckets)/4 {
			chains[b] = true
			s.DelID(k, kvstore.KeyID(k))
		}
	}
	if len(chains) <= len(s.ht[0].buckets)/4 {
		t.Fatalf("only %d distinct chains to remove from", len(chains))
	}
	if _, ok := drain(); ok {
		t.Fatal("journal past its cap reported bounded")
	}

	// Grow into a rehash and drain mid-flight: unbounded until settled.
	for i := 0; !s.rehashing(); i++ {
		key := fmt.Sprintf("grow%d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(64))
	}
	for i := 0; i < 2; i++ {
		if _, ok := drain(); ok || !s.rehashing() {
			t.Fatalf("call %d mid-rehash reported bounded", i)
		}
	}
	s.Quiesce()
	if _, ok := drain(); ok {
		t.Fatal("first call after the rehash settled reported bounded")
	}
	if got, ok := drain(); !ok || len(got) != 0 {
		t.Fatalf("drained settled table reported %v, %v; want nothing, bounded", got, ok)
	}
}
