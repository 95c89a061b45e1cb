package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

// prefetchTrace builds a small multi-frame trace for iterator tests.
func prefetchTrace(t *testing.T) *File {
	t.Helper()
	sizes := make([]int32, 5)
	for i := range sizes {
		sizes[i] = 64
	}
	keys, kinds := genOps(3, 5, 3*FrameOps)
	raw := encode(t, "prefetch", sizes, nil, keys, kinds)
	f, err := New(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// EOF is sticky: Next keeps returning io.EOF after the trace ends, and
// the returned slices stay nil.
func TestFrameReaderStickyEOF(t *testing.T) {
	f := prefetchTrace(t)
	it, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		_, _, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames != 3 {
		t.Fatalf("decoded %d frames, want 3", frames)
	}
	for i := 0; i < 3; i++ {
		keys, kinds, _, err := it.Next()
		if err != io.EOF {
			t.Fatalf("Next after EOF = %v, want io.EOF", err)
		}
		if keys != nil || kinds != nil {
			t.Fatalf("Next after EOF returned data")
		}
	}
}

// A frame handed out by Next stays intact while other iterators on the
// same file run to completion and recycle their buffers.
func TestFrameReaderHandedFrameStable(t *testing.T) {
	f := prefetchTrace(t)
	it, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	keys, kinds, _, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	snapKeys := append([]uint32(nil), keys...)
	snapKinds := append([]uint8(nil), kinds...)
	for i := 0; i < 3; i++ {
		other, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, _, err := other.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range keys {
		if keys[i] != snapKeys[i] || kinds[i] != snapKinds[i] {
			t.Fatalf("op %d mutated while the frame was held", i)
		}
	}
}

// Opening and draining a trace allocates O(1): the iterator itself and
// its section reader, with the frame buffer and read-ahead recycled
// (frameBufs) — in race builds too.
func TestFrameReaderAllocs(t *testing.T) {
	f := prefetchTrace(t)
	allocs := testing.AllocsPerRun(50, func() {
		it, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, _, err := it.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 8 {
		t.Fatalf("open+drain made %.0f allocations, want at most 8", allocs)
	}
}

// A buffer returned to the free list by an iterator that stopped on a bad
// frame carries stale ops and read-ahead; the next iterator to take it
// must decode only its own trace, including a short last frame.
func TestFrameReaderPoolReuse(t *testing.T) {
	sizes := []int32{8, 8, 8, 8, 8, 8, 8}
	keys, kinds := genOps(5, len(sizes), 3*FrameOps)
	bad := encode(t, "bad", sizes, nil, keys, kinds)
	second := frameOffset(bad) + int(frameLen(FrameOps))
	bad[second+frameHeadLen] ^= 0xFF // corrupt the second frame's payload
	bf, err := New(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	it, err := bf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := it.Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame: err %v, want ErrChecksum", err)
	}

	wantKeys, wantKinds := genOps(6, len(sizes), FrameOps+100)
	raw := encode(t, "short-tail", sizes, nil, wantKeys, wantKinds)
	sum, err := Validate(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	gotKeys, gotKinds, rws, _ := decodeAll(t, raw)
	if len(rws) != sum.Frames || uint64(len(gotKeys)) != sum.Ops {
		t.Fatalf("reader %d frames / %d ops, validator %d / %d", len(rws), len(gotKeys), sum.Frames, sum.Ops)
	}
	if !slices.Equal(gotKeys, wantKeys) || !slices.Equal(gotKinds, wantKinds) {
		t.Fatal("decoded ops differ from the ops written")
	}
}
