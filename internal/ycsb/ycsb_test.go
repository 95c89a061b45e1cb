package ycsb

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnemo/internal/kvstore"
)

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Trending(42))
	b := MustGenerate(Trending(42))
	if len(a.Ops) != len(b.Ops) || len(a.Dataset.Records) != len(b.Dataset.Records) {
		t.Fatal("sizes differ across identical generations")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	for i := range a.Dataset.Records {
		if a.Dataset.Records[i] != b.Dataset.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(Trending(1))
	b := MustGenerate(Trending(2))
	same := 0
	for i := range a.Ops {
		if a.Ops[i].Key == b.Ops[i].Key {
			same++
		}
	}
	if same == len(a.Ops) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTableIIIShapes(t *testing.T) {
	for _, spec := range TableIII(7) {
		w := MustGenerate(spec)
		if len(w.Dataset.Records) != DefaultKeys {
			t.Errorf("%s: keys = %d", spec.Name, len(w.Dataset.Records))
		}
		if len(w.Ops) != DefaultRequests {
			t.Errorf("%s: requests = %d", spec.Name, len(w.Ops))
		}
		rf := w.ReadFraction()
		if math.Abs(rf-spec.ReadRatio) > 0.01 {
			t.Errorf("%s: read fraction %.3f, want %.2f", spec.Name, rf, spec.ReadRatio)
		}
		if w.Dataset.TotalBytes <= 0 {
			t.Errorf("%s: empty dataset", spec.Name)
		}
	}
}

func TestReadOnlyWorkloadsHaveNoWrites(t *testing.T) {
	w := MustGenerate(Timeline(3))
	for i, op := range w.Ops {
		if op.Kind != kvstore.Read {
			t.Fatalf("op %d is %v in a read-only workload", i, op.Kind)
		}
	}
}

func TestEditThumbnailMix(t *testing.T) {
	w := MustGenerate(EditThumbnail(3))
	if rf := w.ReadFraction(); math.Abs(rf-0.5) > 0.01 {
		t.Fatalf("read fraction = %.3f, want ≈0.5", rf)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "nokeys", Keys: 0, Requests: 10, ReadRatio: 1},
		{Name: "noreqs", Keys: 10, Requests: 0, ReadRatio: 1},
		{Name: "badratio", Keys: 10, Requests: 10, ReadRatio: 1.5},
		{Name: "negratio", Keys: 10, Requests: 10, ReadRatio: -0.1},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

func TestAccessCounts(t *testing.T) {
	w := MustGenerate(EditThumbnail(9))
	reads, writes := w.AccessCounts()
	var r, wr int
	for i := range reads {
		r += reads[i]
		wr += writes[i]
	}
	if r+wr != len(w.Ops) {
		t.Fatalf("counts %d+%d != %d ops", r, wr, len(w.Ops))
	}
	if r == 0 || wr == 0 {
		t.Fatal("mixed workload missing reads or writes")
	}
}

func TestTouchOrder(t *testing.T) {
	w := MustGenerate(Trending(5))
	order, err := w.TouchOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(w.Dataset.Records) {
		t.Fatalf("touch order len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, k := range order {
		if seen[k] {
			t.Fatalf("key %d appears twice in touch order", k)
		}
		seen[k] = true
	}
	// First entry must be the first op's key.
	if order[0] != w.Ops[0].Key {
		t.Fatalf("touch order starts at %d, first op key %d", order[0], w.Ops[0].Key)
	}
}

func TestTrendingHotSetConcentration(t *testing.T) {
	w := MustGenerate(Trending(11))
	reads, _ := w.AccessCounts()
	hot := 0
	total := 0
	for i, c := range reads {
		total += c
		if i < DefaultKeys/5 {
			hot += c
		}
	}
	frac := float64(hot) / float64(total)
	if math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("hot 20%% of keys received %.3f of ops, want ≈0.9", frac)
	}
}

func TestDownsamplePreservesShape(t *testing.T) {
	w := MustGenerate(Trending(13))
	d := w.Downsample(10, 99)
	if got, want := len(d.Ops), len(w.Ops)/10; got != want {
		t.Fatalf("downsampled ops = %d, want %d", got, want)
	}
	// Hot-set share must be preserved within a few percent.
	share := func(x *Workload) float64 {
		reads, writes := x.AccessCounts()
		hot, total := 0, 0
		for i := range reads {
			c := reads[i] + writes[i]
			total += c
			if i < DefaultKeys/5 {
				hot += c
			}
		}
		return float64(hot) / float64(total)
	}
	if math.Abs(share(w)-share(d)) > 0.03 {
		t.Fatalf("hot share drifted: full %.3f vs sampled %.3f", share(w), share(d))
	}
	// Dataset unchanged.
	if d.Dataset.TotalBytes != w.Dataset.TotalBytes {
		t.Fatal("downsample altered dataset")
	}
	if d.Spec.Name == w.Spec.Name {
		t.Fatal("downsample should rename the spec")
	}
}

func TestDownsampleFactorOneCopies(t *testing.T) {
	w := MustGenerate(Timeline(17))
	d := w.Downsample(1, 0)
	if len(d.Ops) != len(w.Ops) {
		t.Fatal("factor-1 downsample changed length")
	}
	d.Ops[0].Key = -1
	if w.Ops[0].Key == -1 {
		t.Fatal("factor-1 downsample shares the ops slice")
	}
}

func TestDownsamplePanicsOnBadFactor(t *testing.T) {
	w := MustGenerate(Trending(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Downsample(0, 1)
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"trending", "news_feed", "timeline", "edit_thumbnail", "trending_preview"} {
		if _, ok := SpecByName(name, 1); !ok {
			t.Errorf("%q not found", name)
		}
	}
	if _, ok := SpecByName("nonsense", 1); ok {
		t.Error("unknown name resolved")
	}
}

func TestDistKindAndSizeKindStrings(t *testing.T) {
	if Hotspot.String() != "hotspot" || Latest.String() != "latest" {
		t.Error("dist kind strings wrong")
	}
	if SizeThumbnail.String() != "thumbnail" {
		t.Error("size kind string wrong")
	}
	if DistKind(99).String() == "" || SizeKind(99).String() == "" {
		t.Error("unknown kinds should still format")
	}
}

func TestDistSpecNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DistSpec{Kind: DistKind(99)}.New(10, 10)
}

func TestSizeKindNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SizeKind(99).New()
}

func TestKeyNameStable(t *testing.T) {
	if KeyName(7) != "user00000007" {
		t.Fatalf("KeyName(7) = %q", KeyName(7))
	}
}

func TestFixedSizeKinds(t *testing.T) {
	for kind, want := range map[SizeKind]float64{
		SizeFixed1KB:   1024,
		SizeFixed10KB:  10240,
		SizeFixed100KB: 102400,
	} {
		if got := kind.New().Mean(); got != want {
			t.Errorf("%v mean = %v, want %v", kind, got, want)
		}
	}
}

func TestPackedTraceMatchesOps(t *testing.T) {
	w := MustGenerate(Spec{
		Name: "packed", Keys: 100, Requests: 1000,
		Dist: DistSpec{Kind: Zipfian}, ReadRatio: 0.5, Seed: 4,
	})
	pt := w.Packed()
	if pt == nil || !pt.Batchable() {
		t.Fatal("read/write trace not batchable")
	}
	if len(pt.Keys) != len(w.Ops) || len(pt.Kinds) != len(w.Ops) {
		t.Fatalf("packed lengths %d/%d != %d ops", len(pt.Keys), len(pt.Kinds), len(w.Ops))
	}
	for i, op := range w.Ops {
		if int(pt.Keys[i]) != op.Key || kvstore.OpKind(pt.Kinds[i]) != op.Kind {
			t.Fatalf("op %d: packed (%d,%d) != (%d,%v)", i, pt.Keys[i], pt.Kinds[i], op.Key, op.Kind)
		}
	}
	if w.Packed() != pt {
		t.Fatal("Packed not cached")
	}
}

func TestPackedTraceDeleteNotBatchable(t *testing.T) {
	w := MustGenerate(Spec{
		Name: "del", Keys: 10, Requests: 20,
		Dist: DistSpec{Kind: Uniform}, ReadRatio: 1, Seed: 1,
	})
	w.Ops[7].Kind = kvstore.Delete
	pt := w.Packed()
	if pt == nil {
		t.Fatal("trace should still encode")
	}
	if pt.Batchable() {
		t.Fatal("trace with a Delete marked batchable")
	}
	var nilPT *PackedTrace
	if nilPT.Batchable() {
		t.Fatal("nil trace marked batchable")
	}
}

// TestMemoDo is the contract of the one memo (Memo.Do, behind Derived and
// every core.ArtifactCache stage): one of N concurrent first callers
// builds and the rest share its artifact; a failed build is dropped, so
// the next call builds; a panicking build re-panics on its goroutine, a
// caller parked on it gets an error carrying the panic value, and the
// next call builds again.
func TestMemoDo(t *testing.T) {
	var m Memo
	const n = 16
	var builds atomic.Int32
	vals := make([]any, n)
	built := make([]bool, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			vals[i], built[i], err = m.Do("shared", func() (any, error) {
				time.Sleep(time.Millisecond) // keep the build open while the others arrive
				return int(builds.Add(1)), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	nbuilt := 0
	for i := range n {
		if built[i] {
			nbuilt++
		}
		if vals[i] != 1 {
			t.Fatalf("caller %d got %v, want the one build's 1", i, vals[i])
		}
	}
	if nbuilt != 1 || builds.Load() != 1 {
		t.Fatalf("%d callers report building, %d builds ran; want 1 and 1", nbuilt, builds.Load())
	}

	fail := errors.New("fail")
	if _, built, err := m.Do("failing", func() (any, error) { return nil, fail }); err != fail || !built {
		t.Fatalf("failing build = (built %v, %v), want (true, fail)", built, err)
	}
	if v, built, err := m.Do("failing", func() (any, error) { return "retried", nil }); v != "retried" || !built || err != nil {
		t.Fatalf("call after a failed build = (%v, built %v, %v), want a fresh build", v, built, err)
	}

	for attempt := 1; ; attempt++ {
		key := attempt // a fresh key per attempt
		started := make(chan struct{})
		type result struct {
			v     any
			built bool
			err   error
		}
		waiter := make(chan result, 1)
		go func() {
			<-started
			var r result
			r.v, r.built, r.err = m.Do(key, func() (any, error) { return "waiter's", nil })
			waiter <- r
		}()
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("build panic surfaced as %v, want boom", p)
				}
			}()
			m.Do(key, func() (any, error) {
				close(started)
				time.Sleep(time.Duration(attempt) * time.Millisecond) // let the waiter park on this build
				panic("boom")
			})
		}()
		r := <-waiter
		if !r.built {
			// The waiter was parked on the panicked build.
			if r.err == nil || !strings.Contains(r.err.Error(), "boom") || r.v != nil {
				t.Fatalf("waiter got (%v, %v), want the build's panic as an error", r.v, r.err)
			}
			v, built, err := m.Do(key, func() (any, error) { return "rebuilt", nil })
			if err != nil || !built || v != "rebuilt" {
				t.Fatalf("call after the panic = (%v, built %v, %v), want a fresh build", v, built, err)
			}
			return
		}
		if r.err != nil || r.v != "waiter's" {
			t.Fatalf("waiter's own build = (%v, %v)", r.v, r.err)
		}
		if attempt == 20 {
			t.Fatal("the waiter never parked on the panicking build")
		}
	}
}
