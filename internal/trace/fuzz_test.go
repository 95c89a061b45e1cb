package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
)

// FuzzTraceDecode is the format's differential oracle: the streaming
// Reader and the independent pack/scheme Validator share no decode
// code, so on every input — valid or hostile — they must agree on
// accept vs reject, and on the frame/op counts when both accept. Any
// disagreement means one of the two has a parsing bug. Both must also
// fail closed: typed *FormatError, never a panic or runaway
// allocation.
func FuzzTraceDecode(f *testing.F) {
	seed := func(name string, sizes []int32, names []string, keys []uint32, kinds []uint8) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, name, sizes, names, uint64(len(keys)))
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Append(keys, kinds); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// Valid corpus: canonical, named, Delete-bearing, multi-frame, empty.
	f.Add(seed("tiny", []int32{64, 128}, nil, []uint32{0, 1, 0}, []uint8{0, 1, 0}))
	f.Add(seed("named", []int32{8, 8}, []string{"a", "b"}, []uint32{1, 0}, []uint8{2, 1}))
	{
		keys, kinds := genOps(9, 6, FrameOps+100)
		f.Add(seed("multi", []int32{1, 2, 3, 4, 5, 6}, nil, keys, kinds))
	}
	f.Add(seed("empty", []int32{16}, nil, nil, nil))
	// Hostile corpus: truncations, flipped bytes, trailing garbage.
	base := seed("hostile", []int32{32, 32, 32}, nil, []uint32{0, 1, 2}, []uint8{0, 1, 2})
	f.Add(base[:len(base)/2])
	f.Add(append(append([]byte(nil), base...), 0x00))
	{
		flip := append([]byte(nil), base...)
		flip[preludeLen+3] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte("MTRC"))
	f.Add([]byte{})
	if raw, err := os.ReadFile(oversizedTotalPath); err == nil {
		f.Add(raw)
	} else {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		rFrames, rOps, rErr := fuzzRead(raw)
		sum, vErr := Validate(bytes.NewReader(raw), int64(len(raw)))
		if (rErr == nil) != (vErr == nil) {
			t.Fatalf("reader/validator disagree: reader err %v, validator err %v", rErr, vErr)
		}
		if rErr != nil {
			var fe *FormatError
			if !errors.As(rErr, &fe) {
				t.Fatalf("reader error is not a *FormatError: %v", rErr)
			}
			if !errors.As(vErr, &fe) {
				t.Fatalf("validator error is not a *FormatError: %v", vErr)
			}
			return
		}
		if rFrames != sum.Frames || uint64(rOps) != sum.Ops {
			t.Fatalf("reader saw %d frames/%d ops, validator %d/%d",
				rFrames, rOps, sum.Frames, sum.Ops)
		}
		if uint64(rOps) != binary.LittleEndian.Uint64(raw[preludeLen+8:]) {
			t.Fatalf("decoded %d ops, header declares %d",
				rOps, binary.LittleEndian.Uint64(raw[preludeLen+8:]))
		}
	})
}

// fuzzRead decodes header plus every frame through the Reader, counting
// what it accepts.
func fuzzRead(raw []byte) (frames, ops int, err error) {
	f, err := New(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return 0, 0, err
	}
	it, err := f.Frames()
	if err != nil {
		return 0, 0, err
	}
	for {
		keys, _, _, err := it.Next()
		if err == io.EOF {
			return frames, ops, nil
		}
		if err != nil {
			return frames, ops, err
		}
		frames++
		ops += len(keys)
	}
}
