package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the testdata fixtures (golden_v1.* only alongside a format version bump)")

// goldenExpansion is the committed human-readable twin of the binary
// fixture: the decode any v1 reader must produce from golden_v1.mtrc.
type goldenExpansion struct {
	Name     string   `json:"name"`
	Keys     int      `json:"keys"`
	Requests uint64   `json:"requests"`
	Flags    uint16   `json:"flags"`
	Sizes    []int32  `json:"sizes"`
	Frames   []gFrame `json:"frames"`
}

type gFrame struct {
	RW    bool     `json:"rw"`
	Keys  []uint32 `json:"keys"`
	Kinds []uint8  `json:"kinds"`
}

// goldenOps is the fixture's op sequence: pure LCG arithmetic (genOps),
// pinned here by seed and shape so regeneration is exact and never
// depends on the workload generator.
func goldenOps() (string, []int32, []uint32, []uint8) {
	const nk = 37
	sizes := make([]int32, nk)
	for i := range sizes {
		sizes[i] = int32(512 + 31*i)
	}
	keys, kinds := genOps(0x6d6e656d6f, nk, 10_000) // "mnemo"
	return "golden_v1", sizes, keys, kinds
}

// TestGoldenCompat is the cross-version compatibility gate: the
// committed binary fixture must decode to the committed JSON expansion,
// and the current encoder must reproduce the committed bytes exactly.
// If either half fails, the wire format changed — bump Version and
// regenerate with -update per the rule in DESIGN.md §16; silently
// changing v1 breaks every trace already on disk.
func TestGoldenCompat(t *testing.T) {
	mtrcPath := filepath.Join("testdata", "golden_v1.mtrc")
	jsonPath := filepath.Join("testdata", "golden_v1.json")

	if *update {
		name, sizes, keys, kinds := goldenOps()
		raw := encode(t, name, sizes, nil, keys, kinds)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mtrcPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		exp := expand(t, raw)
		out, err := json.MarshalIndent(exp, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s", mtrcPath, len(raw), jsonPath)
	}

	raw, err := os.ReadFile(mtrcPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	var want goldenExpansion
	wantRaw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}

	got := expand(t, raw)
	if got.Name != want.Name || got.Keys != want.Keys || got.Requests != want.Requests || got.Flags != want.Flags {
		t.Fatalf("header decodes as %s/%d/%d/%#x, expansion says %s/%d/%d/%#x",
			got.Name, got.Keys, got.Requests, got.Flags, want.Name, want.Keys, want.Requests, want.Flags)
	}
	if len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("%d sizes, want %d", len(got.Sizes), len(want.Sizes))
	}
	for i := range want.Sizes {
		if got.Sizes[i] != want.Sizes[i] {
			t.Fatalf("size[%d] = %d, want %d", i, got.Sizes[i], want.Sizes[i])
		}
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("%d frames, want %d", len(got.Frames), len(want.Frames))
	}
	for fi := range want.Frames {
		g, w := got.Frames[fi], want.Frames[fi]
		if g.RW != w.RW || len(g.Keys) != len(w.Keys) {
			t.Fatalf("frame %d: rw=%v len=%d, want rw=%v len=%d", fi, g.RW, len(g.Keys), w.RW, len(w.Keys))
		}
		for i := range w.Keys {
			if g.Keys[i] != w.Keys[i] || g.Kinds[i] != w.Kinds[i] {
				t.Fatalf("frame %d op %d = (%d,%d), want (%d,%d)",
					fi, i, g.Keys[i], g.Kinds[i], w.Keys[i], w.Kinds[i])
			}
		}
	}

	// Encoder stability: re-encoding the fixture's ops must reproduce the
	// committed file byte for byte.
	name, sizes, keys, kinds := goldenOps()
	if reRaw := encode(t, name, sizes, nil, keys, kinds); !bytes.Equal(reRaw, raw) {
		t.Fatalf("re-encoded fixture differs from committed bytes (%d vs %d bytes): encoder output changed — bump Version", len(reRaw), len(raw))
	}

	// And the independent validator must accept what the reader accepted.
	if _, err := Validate(bytes.NewReader(raw), int64(len(raw))); err != nil {
		t.Fatalf("Validate rejects golden fixture: %v", err)
	}
}

// expand decodes a raw trace into its JSON expansion form.
func expand(t *testing.T, raw []byte) *goldenExpansion {
	t.Helper()
	keys, kinds, rws, f := decodeAll(t, raw)
	exp := &goldenExpansion{
		Name:     f.Header.Name,
		Keys:     f.Header.Keys,
		Requests: f.Header.Requests,
		Flags:    f.Header.Flags,
		Sizes:    f.Header.Sizes,
	}
	off := 0
	for _, rw := range rws {
		n := FrameOps
		if off+n > len(keys) {
			n = len(keys) - off
		}
		exp.Frames = append(exp.Frames, gFrame{
			RW:    rw,
			Keys:  append([]uint32(nil), keys[off:off+n]...),
			Kinds: append([]uint8(nil), kinds[off:off+n]...),
		})
		off += n
	}
	return exp
}

// oversizedTotalPath is the crafted-header fixture: a valid 200-key ×
// 5 000-request trace whose header declares 2^40 requests, with the
// header checksum recomputed so the total is the only lie.
var oversizedTotalPath = filepath.Join("testdata", "oversized_total.mtrc")

// oversizedTotal builds the crafted-header fixture's bytes.
func oversizedTotal(t *testing.T) []byte {
	t.Helper()
	const nk = 200
	sizes := make([]int32, nk)
	for i := range sizes {
		sizes[i] = int32(100 + 7*i)
	}
	keys, kinds := genOps(0x686f7374, nk, 5_000) // "host"
	raw := encode(t, "oversized_total", sizes, nil, keys, kinds)
	hdrLen := int(binary.LittleEndian.Uint32(raw[6:preludeLen]))
	binary.LittleEndian.PutUint64(raw[preludeLen+8:], 1<<40)
	binary.LittleEndian.PutUint32(raw[preludeLen+hdrLen:], crc32.ChecksumIEEE(raw[preludeLen:preludeLen+hdrLen]))
	return raw
}

// TestGoldenOversizedTotal: a header declaring more requests than the
// file's frame bytes can hold is refused with ErrSchema when the header
// is decoded — before a consumer sizes anything from the total — and by
// the independent validator.
func TestGoldenOversizedTotal(t *testing.T) {
	if *update {
		if err := os.WriteFile(oversizedTotalPath, oversizedTotal(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(oversizedTotalPath)
	if err != nil {
		t.Fatalf("reading crafted fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, oversizedTotal(t)) {
		t.Fatal("committed crafted fixture differs from its construction")
	}
	if _, err := New(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrSchema) {
		t.Fatalf("New: %v, want ErrSchema", err)
	}
	if _, err := Open(oversizedTotalPath); !errors.Is(err, ErrSchema) {
		t.Fatalf("Open: %v, want ErrSchema", err)
	}
	if _, err := Validate(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrSchema) {
		t.Fatalf("Validate: %v, want ErrSchema", err)
	}
}
