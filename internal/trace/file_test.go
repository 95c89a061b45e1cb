package trace

// In-package tests of the file-level helpers: Create/OpenFile/
// ValidateFile on disk, the dataset-derived schema (CreateDataset,
// datasetSchema), the TraceStream adapter, and GenerateFile's error
// paths. The byte-level format behaviour is pinned by trace_test.go;
// streamed-replay equivalence by internal/client.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

func TestCreateValidateFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.mtrc")
	sizes := []int32{100, 200, 300, 400, 500}
	keys, kinds := genOps(11, len(sizes), 2*FrameOps+17)

	wr, err := Create(path, "file-rt", sizes, nil, uint64(len(keys)))
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Append(keys, kinds); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ValidateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Header.Name != "file-rt" || sum.Header.Keys != len(sizes) {
		t.Fatalf("validated header %s/%d, want file-rt/%d", sum.Header.Name, sum.Header.Keys, len(sizes))
	}
	if sum.Frames != 3 || sum.Ops != uint64(len(keys)) {
		t.Fatalf("validated %d frames / %d ops, want 3 / %d", sum.Frames, sum.Ops, len(keys))
	}

	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Requests() != len(keys) {
		t.Fatalf("Requests() = %d, want %d", f.Requests(), len(keys))
	}

	// The TraceStream adapter must yield independent, repeatable
	// iterations of the same ops.
	st := f.Stream()
	if st.Requests() != len(keys) {
		t.Fatalf("stream Requests() = %d, want %d", st.Requests(), len(keys))
	}
	for pass := 0; pass < 2; pass++ {
		it, err := st.Frames()
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for {
			fk, fd, _, err := it.Next()
			if err != nil {
				break
			}
			for i := range fk {
				if fk[i] != keys[off] || fd[i] != kinds[off] {
					t.Fatalf("pass %d op %d = (%d,%d), want (%d,%d)", pass, off, fk[i], fd[i], keys[off], kinds[off])
				}
				off++
			}
		}
		if off != len(keys) {
			t.Fatalf("pass %d yielded %d ops, want %d", pass, off, len(keys))
		}
	}
}

func TestValidateFileRejects(t *testing.T) {
	if _, err := ValidateFile(filepath.Join(t.TempDir(), "absent.mtrc")); err == nil {
		t.Error("ValidateFile accepted a missing file")
	}

	bad := filepath.Join(t.TempDir(), "bad.mtrc")
	if err := os.WriteFile(bad, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(bad); err == nil {
		t.Error("ValidateFile accepted garbage bytes")
	}
}

// ValidateFile closes what it opens: with the GC (and so the os.File
// finalizer) off, repeated calls leave the descriptor count unchanged.
func TestValidateFileClosesDescriptor(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	path := filepath.Join(t.TempDir(), "fd.mtrc")
	keys, kinds := genOps(4, 3, 100)
	if err := os.WriteFile(path, encode(t, "fd", []int32{1, 2, 3}, nil, keys, kinds), 0o644); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFDs()
	for i := 0; i < 100; i++ {
		if _, err := ValidateFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after != before {
		t.Fatalf("100 ValidateFile calls: %d open descriptors, started with %d", after, before)
	}
}

// ValidateFile is Validate over the file's bytes — no reader code runs
// first, so a corrupt header yields the validator's section-prefixed
// error, not the reader's.
func TestValidateFileMatchesValidate(t *testing.T) {
	keys, kinds := genOps(4, 3, 100)
	raw := encode(t, "hdr", []int32{1, 2, 3}, nil, keys, kinds)
	raw[frameOffset(raw)-1] ^= 0xFF // corrupt the stored header CRC
	path := filepath.Join(t.TempDir(), "hdr.mtrc")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := Validate(bytes.NewReader(raw), int64(len(raw)))
	_, got := ValidateFile(path)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("ValidateFile err %v, Validate err %v", got, want)
	}
}

// TestCreateDatasetSchema pins datasetSchema's two modes: canonical key
// names are elided from the file, arbitrary names are carried per key
// and round-trip through Open.
func TestCreateDatasetSchema(t *testing.T) {
	named := &ycsb.Dataset{Records: []ycsb.Record{
		{Key: "alpha", Size: 10},
		{Key: "beta", Size: 20},
	}}
	path := filepath.Join(t.TempDir(), "named.mtrc")
	wr, err := CreateDataset(path, "named", named, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Append([]uint32{0, 1, 0, 1}, []uint8{0, 1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Dataset.Records[0].Key != "alpha" || w.Dataset.Records[1].Key != "beta" {
		t.Fatalf("named keys did not round-trip: %q, %q", w.Dataset.Records[0].Key, w.Dataset.Records[1].Key)
	}
	if w.Dataset.Records[1].Size != 20 {
		t.Fatalf("record size = %d, want 20", w.Dataset.Records[1].Size)
	}

	canonical := &ycsb.Dataset{Records: []ycsb.Record{
		{Key: ycsb.KeyName(0), Size: 10},
		{Key: ycsb.KeyName(1), Size: 20},
	}}
	path2 := filepath.Join(t.TempDir(), "canon.mtrc")
	wr, err = CreateDataset(path2, "canon", canonical, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Append([]uint32{1, 0}, []uint8{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Header.Canonical() {
		t.Error("canonical dataset produced a named-keys file")
	}
	if w, err := Open(path2); err != nil || w.Dataset.Records[1].Key != ycsb.KeyName(1) {
		t.Fatalf("canonical keys did not regenerate: %v, %q", err, w.Dataset.Records[1].Key)
	}
}

func TestCreateErrors(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "x.mtrc"), "x", []int32{1}, nil, 1); err == nil {
		t.Error("Create succeeded under a nonexistent directory")
	}
	// NewWriter rejection must close and not leave a half-writer behind.
	if _, err := Create(filepath.Join(t.TempDir(), "empty.mtrc"), "x", nil, nil, 0); err == nil {
		t.Error("Create accepted an empty key space")
	}
}

func TestGenerateFileErrors(t *testing.T) {
	good := ycsb.Spec{Name: "gf", Keys: 8, Requests: 64,
		Dist: ycsb.DistSpec{Kind: ycsb.Uniform}, ReadRatio: 1.0,
		Sizes: ycsb.SizeFixed1KB, Seed: 5}

	if _, err := GenerateFile(good, filepath.Join(t.TempDir(), "no", "dir", "x.mtrc")); err == nil {
		t.Error("GenerateFile succeeded under a nonexistent directory")
	}

	bad := good
	bad.Keys = 0
	path := filepath.Join(t.TempDir(), "bad.mtrc")
	if _, err := GenerateFile(bad, path); err == nil {
		t.Error("GenerateFile accepted an invalid spec")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed GenerateFile left %s behind (stat err %v)", path, err)
	}

	// And the success path end to end: generated trace reopens streamed
	// with the full spec restored.
	okPath := filepath.Join(t.TempDir(), "ok.mtrc")
	w, err := GenerateFile(good, okPath)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stream == nil || w.Spec.Name != "gf" || w.Spec.Sizes != ycsb.SizeFixed1KB {
		t.Fatalf("generated workload spec not restored: %+v", w.Spec)
	}
	if got := w.RequestCount(); got != good.Requests {
		t.Fatalf("RequestCount = %d, want %d", got, good.Requests)
	}
}

// TestWriteWorkloadErrors covers the spill path's failure handling: the
// partial file must be removed.
func TestWriteWorkloadErrors(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{Name: "spill", Keys: 4, Requests: 16,
		Dist: ycsb.DistSpec{Kind: ycsb.Uniform}, ReadRatio: 1.0,
		Sizes: ycsb.SizeFixed1KB, Seed: 2})
	if err := WriteWorkload(w, filepath.Join(t.TempDir(), "no", "dir", "x.mtrc")); err == nil {
		t.Error("WriteWorkload succeeded under a nonexistent directory")
	}

	// A workload whose ops disagree with its dataset (key index out of
	// range) must fail mid-spill and clean up.
	broken := ycsb.MustGenerate(ycsb.Spec{Name: "broken", Keys: 4, Requests: 4,
		Dist: ycsb.DistSpec{Kind: ycsb.Uniform}, ReadRatio: 1.0,
		Sizes: ycsb.SizeFixed1KB, Seed: 2})
	broken.Ops[2] = ycsb.Op{Key: 99, Kind: kvstore.Read}
	path := filepath.Join(t.TempDir(), "broken.mtrc")
	if err := WriteWorkload(broken, path); err == nil {
		t.Error("WriteWorkload accepted an out-of-range key index")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed WriteWorkload left %s behind (stat err %v)", path, err)
	}
}

// refixHeaderCRC recomputes the header checksum after a test mutated
// header bytes, so the corruption under test (not the CRC) is reached.
func refixHeaderCRC(raw []byte) {
	hdrLen := int(binary.LittleEndian.Uint32(raw[6:10]))
	binary.LittleEndian.PutUint32(raw[preludeLen+hdrLen:],
		crc32.ChecksumIEEE(raw[preludeLen:preludeLen+hdrLen]))
}

// TestRejectsNamedKeyCorruption drives the named-keys header branches
// of both the reader and the independent validator: an oversized
// workload-name length, an oversized key-name length, and a key-name
// length pointing past the header payload must all reject.
func TestRejectsNamedKeyCorruption(t *testing.T) {
	sizes := []int32{8, 16, 24}
	names := []string{"red", "green", "blue"}
	keys := []uint32{0, 1, 2, 1}
	kinds := []uint8{0, 1, 0, 0}
	base := encode(t, "named", sizes, names, keys, kinds)
	nameOff := preludeLen + fixedHeaderLen - 2 // workload nameLen u16
	firstKeyNameOff := preludeLen + fixedHeaderLen + len("named") + 4*len(sizes)

	cases := []struct {
		label string
		patch func(raw []byte)
	}{
		{"workload name length over cap", func(raw []byte) {
			binary.LittleEndian.PutUint16(raw[nameOff:], MaxNameLen+1)
		}},
		{"key-name length over cap", func(raw []byte) {
			binary.LittleEndian.PutUint16(raw[firstKeyNameOff:], MaxNameLen+1)
		}},
		{"key-name length past header end", func(raw []byte) {
			binary.LittleEndian.PutUint16(raw[firstKeyNameOff:], MaxNameLen-1)
		}},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), base...)
		tc.patch(raw)
		refixHeaderCRC(raw)
		rerr := readAll(raw)
		verr := func() error { _, err := Validate(bytes.NewReader(raw), int64(len(raw))); return err }()
		if rerr == nil || verr == nil {
			t.Errorf("%s: reader err %v, validator err %v — both must reject", tc.label, rerr, verr)
		}
	}
}

func TestOpenFileRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.mtrc")
	if err := os.WriteFile(path, []byte("MTRC garbage beyond the magic"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("OpenFile accepted a corrupt header")
	}
}

// TestWriterRejectsMore covers the writer validations beyond
// TestWriterRejects: schema limits at construction, misuse of Append,
// and over-appending past the declared total.
func TestWriterRejectsMore(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("n", MaxNameLen+1)
	if _, err := NewWriter(&buf, long, []int32{1}, nil, 1); err == nil {
		t.Error("oversized workload name accepted")
	}
	if _, err := NewWriter(&buf, "x", []int32{-5}, nil, 1); err == nil {
		t.Error("negative value size accepted")
	}
	if _, err := NewWriter(&buf, "x", []int32{1}, []string{long}, 1); err == nil {
		t.Error("oversized key name accepted")
	}

	w, err := NewWriter(&buf, "x", []int32{1, 2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]uint32{0, 1}, []uint8{0}); err == nil {
		t.Error("mismatched keys/kinds lengths accepted")
	}
	if err := w.Append([]uint32{0, 1}, []uint8{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("2 ops against 1 declared closed clean")
	}
	if err := w.Append([]uint32{0}, []uint8{0}); err == nil {
		t.Error("Append after Close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close not idempotent: %v", err)
	}
}
