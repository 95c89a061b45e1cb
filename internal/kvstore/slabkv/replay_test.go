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

func TestReplayPausesIsZero(t *testing.T) {
	s := New(0)
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(10))
	if pm := s.ReplayPauses(); pm != (kvstore.PauseModel{}) {
		t.Errorf("slabkv PauseModel = %+v, want zero", pm)
	}
}
