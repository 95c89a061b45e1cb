package tiering

import (
	"errors"
	"math"
	"math/rand"
	"os"
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

// TestLaggedContinuesSource: the blocks the sampler tests are the Int31
// stream of rand.NewSource, over many blocks, and each block's hit
// counts are Int31n's verdicts on its accepted draws.
func TestLaggedContinuesSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, rate := range []int{2, 3, 1<<30 + 1} {
			want := rand.New(rand.NewSource(seed))
			d := newDraws(seed, rate)
			for block := 0; block < 20; block++ {
				if block > 0 {
					d.refill()
				}
				acc, hits := 0, uint16(0)
				for i, x := range d.ring {
					got, w := int32(x<<1>>33), want.Int31()
					if got != w {
						t.Fatalf("seed %d, rate %d, draw %d: %d, rand.Int31 %d", seed, rate, block*lagLong+i, got, w)
					}
					if w > int32(1<<31-1-(1<<31)%uint32(rate)) {
						continue // Int31n redraws
					}
					if d.hits[acc] != hits {
						t.Fatalf("seed %d, rate %d, block %d: %d hits before accepted draw %d, want %d", seed, rate, block, d.hits[acc], acc, hits)
					}
					acc++
					if w%int32(rate) == 0 {
						hits++
					}
				}
				if d.accepted != acc || d.hits[acc] != hits {
					t.Fatalf("seed %d, rate %d, block %d: %d accepted with %d hits, want %d with %d", seed, rate, block, d.accepted, d.hits[d.accepted], acc, hits)
				}
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
	return refProfileOf(t, s, rate, seed, w)
}

// refProfileOf is refProfile over several traces of one dataset in turn,
// one rand.Rand drawing for all of them.
func refProfileOf(t *testing.T, s *AddressSpace, rate int, seed int64, traces ...*ycsb.Workload) (samples int64, order []int, rejected int64) {
	t.Helper()
	src := &countingSource{Source: rand.NewSource(seed)}
	rng := rand.New(src)
	counts := map[int64]int64{}
	var touches int64
	for _, w := range traces {
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
	}
	if rate > 1 {
		rejected = src.draws - touches
	}
	records := len(traces[0].Dataset.Records)
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

// checkProfile fails unless p's samples and ordering equal the
// reference's over the traces.
func checkProfile(t *testing.T, p *Profiler, s *AddressSpace, rate int, seed int64, traces ...*ycsb.Workload) {
	t.Helper()
	wantSamples, wantOrder, _ := refProfileOf(t, s, rate, seed, traces...)
	if p.Samples() != wantSamples {
		t.Fatalf("%d samples, reference %d", p.Samples(), wantSamples)
	}
	if got := p.KeyOrdering(); !slices.Equal(got, wantOrder) {
		t.Fatalf("ordering %v, reference %v", got, wantOrder)
	}
}

// touchTrace builds a read trace over a dataset of 1- to 41-page records
// whose requests touch exactly touches pages in all.
func touchTrace(ds ycsb.Dataset, s *AddressSpace, touches int64, seed int64) *ycsb.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &ycsb.Workload{Spec: ycsb.Spec{Name: "sampler_edges"}, Dataset: ds}
	for touches > 0 {
		key := rng.Intn(len(ds.Records))
		if _, pages := s.Pages(key); pages > touches {
			key = 0 // the one-page record fills the remainder
		}
		_, pages := s.Pages(key)
		touches -= pages
		w.Ops = append(w.Ops, ycsb.Op{Key: key, Kind: kvstore.Read})
	}
	return w
}

// TestProfilerBlockEdges: traces whose touches end just before, on and
// just after the end of the source-drawn first block (607 draws) and of
// the first stepped one (1214), then a second Observe on the same
// Profiler, which must continue the draws where the first trace left
// them — as one rand.Rand continued across both traces does.
func TestProfilerBlockEdges(t *testing.T) {
	var ds ycsb.Dataset
	for i := 0; i < 12; i++ {
		ds.Records = append(ds.Records, ycsb.Record{Key: ycsb.KeyName(i), Size: (i*i%41 + 1) * PageSize})
	}
	ds.Records[0].Size = PageSize
	s := NewAddressSpace(ds)
	second := touchTrace(ds, s, 2000, 99)
	for _, touches := range []int64{606, 607, 608, 1214, 1215} {
		first := touchTrace(ds, s, touches, touches)
		for _, rate := range []int{2, 3, 7, 1<<30 + 1} {
			p := NewProfiler(s, rate, 11)
			if err := p.Observe(first); err != nil {
				t.Fatal(err)
			}
			checkProfile(t, p, s, rate, 11, first)
			if err := p.Observe(second); err != nil {
				t.Fatal(err)
			}
			checkProfile(t, p, s, rate, 11, first, second)
		}
	}
}

// TestProfilerCorruptTrace: a .mtrc trace whose third frame fails its
// checksum makes Observe return the decode error, with the counts of the
// two frames before it — the reference's over those ops alone.
func TestProfilerCorruptTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := &ycsb.Workload{Spec: ycsb.Spec{Name: "sampler_corrupt"}}
	for i := 0; i < 30; i++ {
		w.Dataset.Records = append(w.Dataset.Records, ycsb.Record{Key: ycsb.KeyName(i), Size: rng.Intn(9 * PageSize)})
	}
	for i := 0; i < 3*trace.FrameOps+100; i++ {
		w.Ops = append(w.Ops, ycsb.Op{Key: int(30 * math.Pow(rng.Float64(), 2)), Kind: kvstore.Read})
	}
	path := filepath.Join(t.TempDir(), "corrupt.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frames are the file's tail: three full ones, then 100 ops.
	frameLen := func(ops int) int { return 4 + 1 + 5*ops + 4 }
	third := len(raw) - frameLen(100) - frameLen(trace.FrameOps)
	raw[third+5] ^= 0xFF // a key byte of the third frame
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	before := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Ops: w.Ops[:2*trace.FrameOps]}
	s := NewAddressSpace(w.Dataset)
	for _, rate := range []int{1, 3, 4000} {
		p := NewProfiler(s, rate, 2)
		if err := p.Observe(streamed); !errors.Is(err, trace.ErrChecksum) {
			t.Fatalf("rate %d: Observe returned %v, want %v", rate, err, trace.ErrChecksum)
		}
		checkProfile(t, p, s, rate, 2, before)
	}
}
