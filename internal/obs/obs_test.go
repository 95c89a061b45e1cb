package obs

import (
	"math"
	"sync"
	"testing"

	"mnemo/internal/simclock"
)

// TestNilSafety exercises every method on nil receivers — the zero-cost
// uninstrumented configuration the hot paths rely on.
func TestNilSafety(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	s.Counter("c").Add(3)
	s.Counter("c").Inc()
	if got := s.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	s.Gauge("g").Set(1)
	s.Gauge("g").Add(2)
	if got := s.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v", got)
	}
	s.Histogram("h", []float64{1}).Observe(5)
	if snap := s.Histogram("h", []float64{1}).Snapshot(); snap.Count != 0 {
		t.Fatalf("nil histogram count = %d", snap.Count)
	}
	s.Event(EventMeasureStart, "client", "x", 0)
	s.Eventf(EventMeasureStart, "client", 0, "run %d", 1)
	s.StartSpan("measure").End(simclock.Second)
	if s.Journal().Len() != 0 || s.Journal().Dropped() != 0 || s.Journal().Events() != nil {
		t.Fatal("nil journal retained something")
	}
	if s.Registry().Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	var buf nopWriter
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s.Registry().PublishExpvar("nil-reg")
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this doubles as the data-race check of the atomic path.
func TestCounterConcurrent(t *testing.T) {
	s := NewSink()
	c := s.Counter("mnemo_test_total")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("concurrent counter = %d, want %d", got, goroutines*perG)
	}
	// Get-or-create must return the same counter.
	if s.Counter("mnemo_test_total") != c {
		t.Fatal("registry handed out a second counter for one name")
	}
}

// TestGaugeAddConcurrent checks the CAS loop under contention.
func TestGaugeAddConcurrent(t *testing.T) {
	g := NewSink().Gauge("mnemo_busy")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge after balanced adds = %v, want 0", v)
	}
	g.Set(2.5)
	if v := g.Value(); v != 2.5 {
		t.Fatalf("gauge set = %v, want 2.5", v)
	}
}

// TestHistogramBoundaries pins the bucket assignment at the boundary
// values themselves: Prometheus `le` semantics are inclusive, values
// above the last bound land in the +Inf bucket, and cumulative counts
// are monotone.
func TestHistogramBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// ≤1: {0.5, 1} → 2; ≤2: +{1.0000001, 2} → 4; ≤4: +{4} → 5; +Inf: 7.
	wantCum := []int64{2, 4, 5, 7}
	for i, want := range wantCum {
		if snap.Cumulative[i] != want {
			t.Fatalf("cumulative[%d] = %d, want %d (snapshot %+v)", i, snap.Cumulative[i], want, snap)
		}
	}
	if snap.Count != 7 {
		t.Fatalf("count = %d, want 7", snap.Count)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 4 + 4.5 + 100
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExponentialBoundaries(t *testing.T) {
	got := ExponentialBoundaries(100, 2, 4)
	want := []float64{100, 200, 400, 800}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

// TestJournalOrderAndCap checks sequence ordering and the retention cap.
func TestJournalOrderAndCap(t *testing.T) {
	j := &Journal{cap: 3}
	for i := 0; i < 5; i++ {
		j.Append(EventMeasureStart, "client", "x", 0)
	}
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Wall.IsZero() {
			t.Fatalf("event %d missing wall time", i)
		}
	}
	if j.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", j.Dropped())
	}
}

// TestSpanRecordsMetrics checks a span lands in the journal and the
// stage metric families.
func TestSpanRecordsMetrics(t *testing.T) {
	s := NewSink()
	sp := s.StartSpan("measure")
	sp.End(3 * simclock.Second)

	evs := s.Journal().Events()
	if len(evs) != 2 || evs[0].Kind != EventSpanStart || evs[1].Kind != EventSpanEnd {
		t.Fatalf("span events = %+v", evs)
	}
	if evs[1].Sim != 3*simclock.Second {
		t.Fatalf("span end sim = %v", evs[1].Sim)
	}
	if got := s.Counter(Name("mnemo_stage_runs_total", "stage", "measure")).Value(); got != 1 {
		t.Fatalf("stage run counter = %d", got)
	}
	if got := s.Gauge(Name("mnemo_stage_sim_seconds", "stage", "measure")).Value(); got != 3 {
		t.Fatalf("stage sim seconds = %v", got)
	}
}

func TestNameAndBase(t *testing.T) {
	n := Name("mnemo_server_ops_total", "engine", "redislike")
	if n != `mnemo_server_ops_total{engine="redislike"}` {
		t.Fatalf("Name = %q", n)
	}
	if baseName(n) != "mnemo_server_ops_total" {
		t.Fatalf("baseName = %q", baseName(n))
	}
	if Name("x", "", "") != "x" {
		t.Fatal("empty label must leave the base name untouched")
	}
}
