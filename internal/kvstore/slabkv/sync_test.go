package slabkv

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
)

// TestSyncReplayAccumNoop pins the pause-sync side of the streamed
// handshake for the pauseless engine: slab servers report an empty
// pause model and accept (and ignore) accumulator syncs.
func TestSyncReplayAccumNoop(t *testing.T) {
	s := New(0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key%02d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(100))
	}
	if pm := s.ReplayPauses(); pm != (kvstore.PauseModel{}) {
		t.Fatalf("pauseless store reports pause model %+v", pm)
	}
	s.SyncReplayAccum(1 << 20)
	if pm := s.ReplayPauses(); pm != (kvstore.PauseModel{}) {
		t.Fatalf("SyncReplayAccum changed the pause model: %+v", pm)
	}
	if ns := s.TakePauseNs(); ns != 0 {
		t.Fatalf("pauseless store emitted a pause of %v ns", ns)
	}
}
