package tiering

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func dataset(t *testing.T) *ycsb.Workload {
	t.Helper()
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "tiering_test", Keys: 300, Requests: 6000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeThumbnail, Seed: 3,
	})
}

func TestAddressSpaceLayout(t *testing.T) {
	w := dataset(t)
	s := NewAddressSpace(w.Dataset)
	if s.TotalPages() <= 0 {
		t.Fatal("empty address space")
	}
	// Records are disjoint and page-aligned.
	var prevEnd int64
	for i := range w.Dataset.Records {
		first, count := s.Pages(i)
		if count <= 0 {
			t.Fatalf("record %d spans %d pages", i, count)
		}
		if first*PageSize < prevEnd {
			t.Fatalf("record %d overlaps previous", i)
		}
		prevEnd = (first + count) * PageSize
	}
	if prevEnd != s.TotalPages()*PageSize {
		t.Fatalf("layout ends at byte %d, %d pages mapped", prevEnd, s.TotalPages())
	}
}

func TestFullRateProfilerFindsHotSet(t *testing.T) {
	w := dataset(t)
	s := NewAddressSpace(w.Dataset)
	p := NewProfiler(s, 1, 1)
	if err := p.Observe(w); err != nil {
		t.Fatal(err)
	}
	if p.Samples() == 0 {
		t.Fatal("no observations at rate 1")
	}
	order := p.KeyOrdering()
	if len(order) != len(w.Dataset.Records) {
		t.Fatalf("ordering covers %d keys", len(order))
	}
	// The top 20% of the ordering must be dominated by the true hot set
	// (records 0..59 in a 300-key hotspot workload).
	if hot := hotCount(order[:60], 60); hot < 55 {
		t.Errorf("only %d/60 of the top ordering are true hot keys", hot)
	}
}

// hotCount counts the records of order below hot.
func hotCount(order []int, hot int) int {
	n := 0
	for _, rec := range order {
		if rec < hot {
			n++
		}
	}
	return n
}

func TestSamplingRateDegradesGracefully(t *testing.T) {
	w := dataset(t)
	s := NewAddressSpace(w.Dataset)
	exact := NewProfiler(s, 1, 1)
	sparse := NewProfiler(s, 500, 1)
	if err := exact.Observe(w); err != nil {
		t.Fatal(err)
	}
	if err := sparse.Observe(w); err != nil {
		t.Fatal(err)
	}
	if sparse.Samples() >= exact.Samples()/100 {
		t.Fatalf("rate-500 sampler took %d of %d samples", sparse.Samples(), exact.Samples())
	}
	// Sparse ordering still surfaces mostly-hot keys at the top.
	if hot := hotCount(sparse.KeyOrdering()[:60], 60); hot < 30 {
		t.Errorf("sparse sampler found only %d/60 hot keys at the top", hot)
	}
}

func TestUnobservedKeysAppended(t *testing.T) {
	w := dataset(t)
	s := NewAddressSpace(w.Dataset)
	// Extreme rate: almost nothing observed.
	p := NewProfiler(s, 1_000_000, 1)
	if err := p.Observe(w); err != nil {
		t.Fatal(err)
	}
	order := p.KeyOrdering()
	if len(order) != len(w.Dataset.Records) {
		t.Fatalf("ordering dropped keys: %d", len(order))
	}
	seen := make([]bool, len(order))
	for _, rec := range order {
		if seen[rec] {
			t.Fatalf("record %d duplicated", rec)
		}
		seen[rec] = true
	}
}

func TestProfilerPanicsOnBadRate(t *testing.T) {
	w := dataset(t)
	s := NewAddressSpace(w.Dataset)
	for _, rate := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %d: expected panic", rate)
				}
			}()
			NewProfiler(s, rate, 1)
		}()
	}
}

// TestLaggedContinuesSource: the inline generator yields the Int31
// stream of rand.NewSource over many blocks, whatever the request sizes.
func TestLaggedContinuesSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		g := newLagged(rand.NewSource(seed))
		drawn := 0
		for drawn < 20*lagLong {
			for _, x := range g.next(int64(1 + drawn%700)) {
				if got, w := int32(x<<1>>33), want.Int31(); got != w {
					t.Fatalf("seed %d, draw %d: %d, rand.Int31 %d", seed, drawn, got, w)
				}
				drawn++
			}
		}
	}
}

// countingSource counts the draws of the source it wraps.
type countingSource struct {
	rand.Source
	draws int64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// refProfile is the profiler as it stood before per-record counters: one
// rng.Intn per page touch into a page → count map, aggregated back to
// records by a binary search over the layout and ranked by density. It
// is the independent oracle the division-free sampler must reproduce. It
// returns the sample count, the record ordering and the number of draws
// Int31n rejected.
func refProfile(t *testing.T, s *AddressSpace, w *ycsb.Workload, rate int, seed int64) (samples int64, order []int, rejected int64) {
	t.Helper()
	src := &countingSource{Source: rand.NewSource(seed)}
	rng := rand.New(src)
	counts := map[int64]int64{}
	var touches int64
	if err := w.ForEachOp(func(key int, _ kvstore.OpKind) {
		first, count := s.Pages(key)
		for pg := first; pg < first+count; pg++ {
			touches++
			if rate == 1 || rng.Intn(rate) == 0 {
				counts[pg]++
				samples++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rate > 1 {
		rejected = src.draws - touches
	}
	records := len(w.Dataset.Records)
	recordOf := func(page int64) int {
		return sort.Search(records, func(i int) bool {
			first, count := s.Pages(i)
			return first+count > page
		})
	}
	byRecord := map[int]int64{}
	for pg, c := range counts {
		byRecord[recordOf(pg)] += c
	}
	type heat struct {
		record  int
		density float64
	}
	var heats []heat
	for rec, c := range byRecord {
		_, pages := s.Pages(rec)
		heats = append(heats, heat{rec, float64(c) / float64(pages)})
	}
	sort.Slice(heats, func(i, j int) bool {
		if heats[i].density != heats[j].density {
			return heats[i].density > heats[j].density
		}
		return heats[i].record < heats[j].record
	})
	seen := make([]bool, records)
	for _, h := range heats {
		order = append(order, h.record)
		seen[h.record] = true
	}
	for rec := range seen {
		if !seen[rec] {
			order = append(order, rec)
		}
	}
	return samples, order, rejected
}

// TestProfilerMatchesReference pins the sampler to the map-and-Intn
// profiler it replaced, draw for draw, at power-of-two and other rates
// on every trace backing. The records are large (128–383 pages) so the
// trace makes enough draws for Int31n's rejection branch to fire at
// rate 2^20−1, where a draw is redrawn with probability 2048/2^31.
func TestProfilerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inMem := &ycsb.Workload{Spec: ycsb.Spec{Name: "sampler_ref"}}
	for i := 0; i < 40; i++ {
		size := (128 + rng.Intn(256)) * PageSize
		if i%7 == 0 {
			size = rng.Intn(3 * PageSize) // zero and sub-page records too
		}
		inMem.Dataset.Records = append(inMem.Dataset.Records, ycsb.Record{Key: ycsb.KeyName(i), Size: size})
	}
	for i := 0; i < 6000; i++ {
		key := int(40 * math.Pow(rng.Float64(), 2))
		inMem.Ops = append(inMem.Ops, ycsb.Op{Key: key, Kind: kvstore.Read})
	}
	pt := inMem.Packed()
	packed := ycsb.FromPacked(inMem.Spec, inMem.Dataset, pt.Keys, pt.Kinds)
	path := filepath.Join(t.TempDir(), "ref.mtrc")
	if err := trace.WriteWorkload(inMem, path); err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewAddressSpace(inMem.Dataset)
	backings := []struct {
		name string
		w    *ycsb.Workload
	}{{"in-memory", inMem}, {"packed", packed}, {"mtrc", streamed}}
	for _, rate := range []int{1, 2, 3, 12, 4000, 4096, 15434, 181748, 1<<20 - 1, 1 << 20} {
		wantSamples, wantOrder, rejected := refProfile(t, s, inMem, rate, 5)
		if rate == 1<<20-1 && rejected == 0 {
			t.Fatalf("rate %d: the reference never redrew; the trace is too short to cover Int31n's rejection branch", rate)
		}
		for _, b := range backings {
			p := NewProfiler(s, rate, 5)
			if err := p.Observe(b.w); err != nil {
				t.Fatal(err)
			}
			if p.Samples() != wantSamples {
				t.Fatalf("rate %d, %s: %d samples, reference %d", rate, b.name, p.Samples(), wantSamples)
			}
			if got := p.KeyOrdering(); !slices.Equal(got, wantOrder) {
				t.Fatalf("rate %d, %s: ordering %v, reference %v", rate, b.name, got, wantOrder)
			}
		}
	}
}
