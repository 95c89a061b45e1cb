package mnemo

import (
	"errors"
	"path/filepath"
	"testing"

	"mnemo/internal/trace"
)

// TestTraceAPIRoundTrip pins the facade's .mtrc surface: WriteTrace
// spills a workload, ValidateTrace reports its dimensions, OpenTrace
// reopens it streamed, and the streamed workload measures through the
// standard pipeline.
func TestTraceAPIRoundTrip(t *testing.T) {
	w := smallWorkload(t)
	path := filepath.Join(t.TempDir(), "facade.mtrc")
	if err := WriteTrace(w, path); err != nil {
		t.Fatal(err)
	}

	sum, err := ValidateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Name != w.Spec.Name || sum.Keys != len(w.Dataset.Records) || sum.Requests != int64(len(w.Ops)) {
		t.Fatalf("summary %+v does not match workload %s/%d/%d",
			sum, w.Spec.Name, len(w.Dataset.Records), len(w.Ops))
	}
	if sum.Frames == 0 || sum.ReadWriteFrames != sum.Frames {
		t.Fatalf("read-only trace validated as %d rw of %d frames", sum.ReadWriteFrames, sum.Frames)
	}

	tw, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tw.RequestCount() != len(w.Ops) || len(tw.Dataset.Records) != len(w.Dataset.Records) {
		t.Fatalf("reopened trace has %d requests / %d records, want %d / %d",
			tw.RequestCount(), len(tw.Dataset.Records), len(w.Ops), len(w.Dataset.Records))
	}

	// The streamed workload must profile like the in-memory one.
	opts := Options{Store: RedisLike, Seed: 9}
	got, err := Profile(tw, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Profile(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Baselines.Fast.Runtime != want.Baselines.Fast.Runtime ||
		got.Baselines.Slow.Runtime != want.Baselines.Slow.Runtime {
		t.Fatalf("streamed baselines %v/%v != in-memory %v/%v",
			got.Baselines.Fast.Runtime, got.Baselines.Slow.Runtime,
			want.Baselines.Fast.Runtime, want.Baselines.Slow.Runtime)
	}
}

func TestTraceAPIErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.mtrc")
	if _, err := OpenTrace(missing); err == nil {
		t.Error("OpenTrace accepted a missing file")
	}
	if _, err := ValidateTrace(missing); err == nil {
		t.Error("ValidateTrace accepted a missing file")
	}
	if err := WriteTrace(smallWorkload(t), filepath.Join(t.TempDir(), "no", "dir", "x.mtrc")); err == nil {
		t.Error("WriteTrace succeeded under a nonexistent directory")
	}
}

// TestOpenTraceRefusesOversizedTotal: a header declaring 2^40 requests
// over 26 KB of frames is refused at OpenTrace with a schema error, so
// nothing downstream — the LLC share's hit bitmap included — is ever
// sized from the declared total.
func TestOpenTraceRefusesOversizedTotal(t *testing.T) {
	tw, err := OpenTrace(filepath.Join("internal", "trace", "testdata", "oversized_total.mtrc"))
	if !errors.Is(err, trace.ErrSchema) || tw != nil {
		t.Fatalf("OpenTrace: %v, %v; want a nil workload and trace.ErrSchema", tw, err)
	}
}
