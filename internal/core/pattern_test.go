package core

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mnemo/internal/ycsb"
)

// countingStream serves w's frames, counting the iterators opened; it
// fails every open while broken is set.
type countingStream struct {
	w      *ycsb.Workload
	opened *atomic.Int32
	broken *atomic.Bool
}

func (s countingStream) Requests() int { return len(s.w.Ops) }

func (s countingStream) Frames() (ycsb.FrameIter, error) {
	s.opened.Add(1)
	if s.broken.Load() {
		return nil, errors.New("trace file vanished")
	}
	frames, err := s.w.Frames()
	return &frames, err
}

// TestKeyStatsMemo: KeyStats walks the trace once per workload however
// many callers race for it, and every caller gets the same slice — the
// tally of a fresh workload. A trace that fails to read returns its
// error and is not memoized.
func TestKeyStatsMemo(t *testing.T) {
	w := mixedWorkload(3)
	want, err := KeyStats(mixedWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	cs := countingStream{w: w, opened: new(atomic.Int32), broken: new(atomic.Bool)}
	sw := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: cs}

	cs.broken.Store(true)
	if _, err := KeyStats(sw); err == nil {
		t.Fatal("a trace that cannot be read tallied without an error")
	}
	cs.broken.Store(false)
	got := make([][]KeyStat, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = KeyStats(sw); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := cs.opened.Load(); n != 2 {
		t.Fatalf("%d trace walks for a failed call and %d racing ones, want 1 each", n, len(got))
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got a slice of its own", i)
		}
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("the memoized tally differs from a fresh workload's")
	}
}
