package slabkv

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
)

// TestSyncReplayAccumNoop pins the accumulator restore for the pauseless
// engine: slab servers accept (and ignore) SetPauseAccum, still report
// no pause model, and emit no pause.
func TestSyncReplayAccumNoop(t *testing.T) {
	s := New(0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key%02d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(100))
	}
	s.SetPauseAccum(1 << 40)
	if accum, ok := s.PauseAccum(); ok || accum != 0 {
		t.Fatalf("SetPauseAccum gave the pauseless store accumulator %d, %t", accum, ok)
	}
	if ns := s.ChargeReplay(100 << 10); ns != 0 {
		t.Fatalf("charge after SetPauseAccum stalled %v ns", ns)
	}
	if ns := s.TakePauseNs(); ns != 0 {
		t.Fatalf("pauseless store emitted a pause of %v ns", ns)
	}
}
