package hashkv

import "testing"

// TestSyncReplayAccumNoop pins the accumulator restore for the pauseless
// engine: hash servers accept (and ignore) SetPauseAccum, still report
// no pause model, and emit no pause.
func TestSyncReplayAccumNoop(t *testing.T) {
	s := New()
	populate(s, 50)
	s.TakePauseNs() // drain rehash pauses from the load
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
