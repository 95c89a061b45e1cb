package treekv

import (
	"testing"

	"mnemo/internal/kvstore"
)

// TestSyncReplayAccum pins the pause-sync side of the streamed
// handshake: the kernel's mirrored GC accumulator becomes the live
// allocation counter, observable through ReplayPauses and through the
// next charge crossing the budget.
func TestSyncReplayAccum(t *testing.T) {
	s := New()
	populateTree(s, 100)
	s.TakePauseNs()

	pm := s.ReplayPauses()
	if pm.BudgetBytes != gcAllocBudget || pm.PerOpBytes != requestGarbageB || pm.PauseNs != gcPauseNs {
		t.Fatalf("pause model %+v does not export the charge dynamics", pm)
	}

	s.SyncReplayAccum(12345)
	if got := s.ReplayPauses().Accum; got != 12345 {
		t.Fatalf("accum after SyncReplayAccum = %d, want 12345", got)
	}

	// Syncing to just below the GC budget makes the very next charge
	// cross it: the accumulator resets and the young-gen pause is
	// emitted — the behaviour the kernel relies on when handing per-op
	// frames back to the live store.
	s.SyncReplayAccum(gcAllocBudget - 1)
	s.PutID("key0000", kvstore.KeyID("key0000"), kvstore.Sized(64))
	if got := s.ReplayPauses().Accum; got >= gcAllocBudget-1 {
		t.Fatalf("accum did not reset across the budget: %d", got)
	}
	if ns := s.TakePauseNs(); ns < gcPauseNs {
		t.Fatalf("crossing the budget emitted %v ns, want >= %v", ns, gcPauseNs)
	}
}
