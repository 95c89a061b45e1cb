package treekv

import (
	"testing"

	"mnemo/internal/kvstore"
)

// TestSyncReplayAccum pins the accumulator restore the kernel relies on
// when it resets a run: SetPauseAccum makes the given value the live GC
// accumulator, observable through PauseAccum and through the next charge
// crossing the budget, and restoring a snapshot undoes the charges since.
func TestSyncReplayAccum(t *testing.T) {
	s := New()
	populateTree(s, 100)
	s.TakePauseNs()

	s.SetPauseAccum(12345)
	if got, ok := s.PauseAccum(); !ok || got != 12345 {
		t.Fatalf("PauseAccum after SetPauseAccum = %d, %t; want 12345, true", got, ok)
	}
	snap, _ := s.PauseAccum()
	s.ChargeReplay(64)
	s.GetID("key0000", kvstore.KeyID("key0000"))
	s.SetPauseAccum(snap)
	if got, _ := s.PauseAccum(); got != snap {
		t.Fatalf("restoring %d left %d", snap, got)
	}

	// Restoring to just below the GC budget makes the very next charge
	// cross it: the accumulator resets and the young-gen pause is
	// emitted, on the per-op path and through the kernel's hook alike.
	s.SetPauseAccum(gcAllocBudget - 1)
	s.PutID("key0000", kvstore.KeyID("key0000"), kvstore.Sized(64))
	if got, _ := s.PauseAccum(); got >= gcAllocBudget-1 {
		t.Fatalf("accum did not reset across the budget: %d", got)
	}
	if ns := s.TakePauseNs(); ns < gcPauseNs {
		t.Fatalf("crossing the budget emitted %v ns, want >= %v", ns, gcPauseNs)
	}
	s.SetPauseAccum(gcAllocBudget - 1)
	if ns := s.ChargeReplay(64); ns != gcPauseNs {
		t.Fatalf("ChargeReplay across the budget stalled %v ns, want %v", ns, float64(gcPauseNs))
	}
}
