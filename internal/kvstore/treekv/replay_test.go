package treekv

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
)

func populateTree(s *Store, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.PutID(keys[i], kvstore.KeyID(keys[i]), kvstore.Sized(64))
	}
	return keys
}

func TestQuiesceReachesFixpoint(t *testing.T) {
	s := New()
	keys := populateTree(s, 500) // deep enough to leave full nodes behind

	if s.ReplayReady() {
		t.Skip("bulk load left no full node; nothing to quiesce")
	}
	s.Quiesce()
	if !s.ReplayReady() {
		t.Fatal("Quiesce left a full node")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("tree invariants broken after Quiesce: %s", msg)
	}
	for _, k := range keys {
		if _, tr := s.GetID(k, kvstore.KeyID(k)); !tr.Found {
			t.Fatalf("key %q lost across Quiesce", k)
		}
	}
}

// TestStaticTraceMatchesLiveOps pins the batched-replay contract: on a
// quiesced tree StaticTrace predicts the exact Chases of live GetID and
// same-size PutID overwrites, stably across repetition (no Put descent
// may split).
func TestStaticTraceMatchesLiveOps(t *testing.T) {
	s := New()
	keys := populateTree(s, 300)
	s.Quiesce()
	s.TakePauseNs()

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
	if !s.ReplayReady() {
		t.Fatal("replaying overwrites restructured the quiesced tree")
	}
}

func TestStaticTraceRejectsMissingAndMismatched(t *testing.T) {
	s := New()
	populateTree(s, 50)
	s.Quiesce()
	if _, _, ok := s.StaticTrace("zzz-gone", kvstore.KeyID("zzz-gone")); ok {
		t.Error("StaticTrace ok on missing key")
	}
	if _, _, ok := s.StaticTrace("key0000", 12345); ok {
		t.Error("StaticTrace ok on mismatched record ID")
	}
}

// TestReplayPausesExportsGCModel checks the PauseModel mirrors charge():
// same budget, same per-op framing garbage, same pause, and the live
// accumulator snapshot.
func TestReplayPausesExportsGCModel(t *testing.T) {
	s := New()
	populateTree(s, 10)
	pm := s.ReplayPauses()
	if pm.BudgetBytes != gcAllocBudget || pm.PerOpBytes != requestGarbageB || pm.PauseNs != gcPauseNs {
		t.Fatalf("PauseModel constants %+v diverge from charge()", pm)
	}
	if pm.Accum != s.allocBytes {
		t.Fatalf("PauseModel.Accum = %d, live accumulator %d", pm.Accum, s.allocBytes)
	}
	// The model must predict the next pause: drive the live accumulator
	// over the budget and check a pause fires exactly when predicted.
	opsToPause := 0
	accum := pm.Accum
	for accum < pm.BudgetBytes {
		accum += 64 + pm.PerOpBytes
		opsToPause++
	}
	s.TakePauseNs()
	for i := 0; i < opsToPause-1; i++ {
		s.GetID("key0000", kvstore.KeyID("key0000"))
		if p := s.TakePauseNs(); p != 0 {
			t.Fatalf("pause fired %d ops early", opsToPause-1-i)
		}
	}
	s.GetID("key0000", kvstore.KeyID("key0000"))
	if p := s.TakePauseNs(); p != gcPauseNs {
		t.Fatalf("pause at predicted op = %v, want %v", p, float64(gcPauseNs))
	}
}
