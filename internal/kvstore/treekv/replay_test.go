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

// TestReplayPausesExportsGCModel checks the kernel's pause hook runs
// charge()'s GC model: PauseAccum reports the live accumulator, and
// ChargeReplay stalls with the young-gen pause at exactly the request the
// budget, the per-request framing garbage and the record size predict.
func TestReplayPausesExportsGCModel(t *testing.T) {
	const size = 64 << 10
	s := New()
	populateTree(s, 10)
	s.Quiesce()
	s.TakePauseNs()
	accum, ok := s.PauseAccum()
	if !ok || accum != s.allocBytes {
		t.Fatalf("PauseAccum = %d, %t; want the live accumulator %d, true", accum, ok, s.allocBytes)
	}
	opsToPause := 0
	for accum < gcAllocBudget {
		accum += size + requestGarbageB
		opsToPause++
	}
	for i := 0; i < opsToPause-1; i++ {
		if p := s.ChargeReplay(size); p != 0 {
			t.Fatalf("pause fired %d charges early", opsToPause-1-i)
		}
	}
	if p := s.ChargeReplay(size); p != gcPauseNs {
		t.Fatalf("pause at predicted charge = %v, want %v", p, float64(gcPauseNs))
	}
	if got, _ := s.PauseAccum(); got != 0 {
		t.Fatalf("accumulator %d after the collection, want 0", got)
	}
}

// TestChargeReplayMatchesGet pins the kernel's pause hook against the
// per-op path: charging a request of a resident record's size moves the
// GC accumulator and fires the pause exactly as a GetID of that record
// does, request for request, across budget crossings.
func TestChargeReplayMatchesGet(t *testing.T) {
	const size = 100 << 10
	live, hook := New(), New()
	for _, s := range []*Store{live, hook} {
		populateTree(s, 50)
		s.PutID("big", kvstore.KeyID("big"), kvstore.Sized(size))
		s.Quiesce()
		s.TakePauseNs()
	}
	for i := 0; i < 3*gcAllocBudget/size; i++ {
		live.GetID("big", kvstore.KeyID("big"))
		want := live.TakePauseNs()
		if got := hook.ChargeReplay(size); got != want {
			t.Fatalf("request %d: ChargeReplay stalled %v ns, GetID %v ns", i, got, want)
		}
		if got, want := hook.allocBytes, live.allocBytes; got != want {
			t.Fatalf("request %d: accumulator %d after ChargeReplay, %d after GetID", i, got, want)
		}
	}
	if live.GCCount() < 2 || hook.GCCount() != live.GCCount() {
		t.Fatalf("GC counts: hook %d, GetID %d; want equal and at least 2", hook.GCCount(), live.GCCount())
	}
}
