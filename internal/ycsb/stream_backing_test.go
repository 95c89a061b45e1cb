package ycsb

// In-package tests of the trace-backing seams used by the streamed
// .mtrc path: FromPacked construction, and ForEachOp/RequestCount over
// all three backings (Ops, packed, stream). The on-disk stream
// implementation lives in internal/trace (which imports this package),
// so the stream here is a test double.

import (
	"errors"
	"io"
	"testing"

	"mnemo/internal/kvstore"
)

// fakeStream is a TraceStream over in-memory frames.
type fakeStream struct {
	keys  [][]uint32
	kinds [][]uint8
	err   error // returned by Frames when set
}

func (s *fakeStream) Requests() int {
	n := 0
	for _, f := range s.keys {
		n += len(f)
	}
	return n
}

func (s *fakeStream) Frames() (FrameIter, error) {
	if s.err != nil {
		return nil, s.err
	}
	return &fakeIter{s: s}, nil
}

type fakeIter struct {
	s    *fakeStream
	next int
}

func (it *fakeIter) Next() ([]uint32, []uint8, bool, error) {
	if it.next >= len(it.s.keys) {
		return nil, nil, false, io.EOF
	}
	i := it.next
	it.next++
	return it.s.keys[i], it.s.kinds[i], true, nil
}

func testDataset(n int) Dataset {
	ds := Dataset{Records: make([]Record, n)}
	for i := range ds.Records {
		name := KeyName(i)
		ds.Records[i] = Record{Key: name, ID: kvstore.KeyID(name), Size: 100}
		ds.TotalBytes += 100
	}
	return ds
}

func TestFromPacked(t *testing.T) {
	keys := []uint32{0, 2, 1, 2}
	kinds := []uint8{0, 1, 0, 0}
	w := FromPacked(Spec{Name: "fp", Keys: 3, Requests: 4}, testDataset(3), keys, kinds)
	if w.Ops != nil {
		t.Fatal("FromPacked materialized Ops")
	}
	pt := w.Packed()
	if pt == nil || !pt.Batchable() {
		t.Fatal("read/write packed trace not batchable")
	}
	if w.RequestCount() != 4 {
		t.Fatalf("RequestCount = %d, want 4", w.RequestCount())
	}
	var got []int
	if err := w.ForEachOp(func(key int, kind kvstore.OpKind) {
		got = append(got, key)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[1] != 2 {
		t.Fatalf("ForEachOp over packed backing yielded %v", got)
	}

	del := FromPacked(Spec{Keys: 3, Requests: 1}, testDataset(3),
		[]uint32{1}, []uint8{uint8(kvstore.Delete)})
	if del.Packed().Batchable() {
		t.Error("packed trace with a Delete reported batchable")
	}
}

func TestForEachOpStreamBacking(t *testing.T) {
	st := &fakeStream{
		keys:  [][]uint32{{0, 1}, {2}},
		kinds: [][]uint8{{0, 1}, {2}},
	}
	w := &Workload{Spec: Spec{Keys: 3, Requests: 3}, Dataset: testDataset(3), Stream: st}
	if w.RequestCount() != 3 {
		t.Fatalf("RequestCount over stream = %d, want 3", w.RequestCount())
	}
	var keys []int
	var kinds []kvstore.OpKind
	if err := w.ForEachOp(func(key int, kind kvstore.OpKind) {
		keys = append(keys, key)
		kinds = append(kinds, kind)
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[2] != 2 || kinds[2] != kvstore.Delete {
		t.Fatalf("ForEachOp over stream yielded %v / %v", keys, kinds)
	}

	// A streamed workload never materializes a packed encoding.
	if w.Packed() != nil {
		t.Error("Packed() materialized a streamed trace")
	}

	broken := &Workload{Spec: Spec{Keys: 1}, Stream: &fakeStream{err: errors.New("no frames")}}
	if err := broken.ForEachOp(func(int, kvstore.OpKind) {}); err == nil {
		t.Error("ForEachOp swallowed a stream error")
	}
}

func TestRequestCountEmpty(t *testing.T) {
	if n := (&Workload{}).RequestCount(); n != 0 {
		t.Fatalf("empty workload RequestCount = %d", n)
	}
}

// TestFramesWindows pins the one frame source on the in-memory
// backings: StreamFrameOps-sized windows over the packed encoding whose
// concatenation is the trace, with the read/write-only flag decided per
// window — one Delete costs its own window the flag, not the trace.
func TestFramesWindows(t *testing.T) {
	const n = 2*StreamFrameOps + 100
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Key: i % 7, Kind: kvstore.OpKind(i % 2)}
	}
	ops[StreamFrameOps+5].Kind = kvstore.Delete
	inMem := &Workload{Dataset: testDataset(7), Ops: ops}
	pt := inMem.Packed()
	packedOnly := FromPacked(Spec{}, inMem.Dataset, pt.Keys, pt.Kinds)

	for name, w := range map[string]*Workload{"ops": inMem, "packed-only": packedOnly} {
		frames, err := w.Frames()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		at := 0
		for _, want := range []struct {
			len int
			rw  bool
		}{{StreamFrameOps, true}, {StreamFrameOps, false}, {100, true}} {
			keys, kinds, rw, err := frames.Next()
			if err != nil || len(keys) != want.len || len(kinds) != want.len || rw != want.rw {
				t.Fatalf("%s: frame at %d: %d keys, %d kinds, rw=%t, err %v; want %d ops, rw=%t",
					name, at, len(keys), len(kinds), rw, err, want.len, want.rw)
			}
			for i := range keys {
				if int(keys[i]) != ops[at+i].Key || kvstore.OpKind(kinds[i]) != ops[at+i].Kind {
					t.Fatalf("%s: op %d differs from the trace", name, at+i)
				}
			}
			at += len(keys)
		}
		if _, _, _, err := frames.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

// TestTouchOrderMemo: TouchOrder walks the trace once per workload and
// hands every caller the same slice; a trace that fails to read returns
// its error and leaves nothing behind, so the next call walks again.
func TestTouchOrderMemo(t *testing.T) {
	st := &fakeStream{
		keys:  [][]uint32{{2, 0}, {2}},
		kinds: [][]uint8{{0, 1}, {0}},
		err:   errors.New("no frames"),
	}
	w := &Workload{Spec: Spec{Keys: 3, Requests: 3}, Dataset: testDataset(3), Stream: st}
	if order, err := w.TouchOrder(); err == nil || len(order) != 3 {
		t.Fatalf("unreadable trace: order %v, err %v; want every key and the read error", order, err)
	}
	st.err = nil
	a, err := w.TouchOrder()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 0, 1}; len(a) != 3 || a[0] != want[0] || a[1] != want[1] || a[2] != want[2] {
		t.Fatalf("touch order %v after the trace became readable, want %v", a, want)
	}
	st.err = errors.New("no frames")
	b, err := w.TouchOrder()
	if err != nil || &a[0] != &b[0] {
		t.Fatalf("second call: err %v, same backing array %t; want the memoized order", err, err == nil && &a[0] == &b[0])
	}
}
