package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/knapsack"
	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// pagesWorkload builds a workload of `keys` records whose sizes add up
// to about totalPages 4 KB pages, with a skewed random trace.
func pagesWorkload(rng *rand.Rand, keys int, totalPages int64) *ycsb.Workload {
	w := &ycsb.Workload{}
	mean := totalPages / int64(keys)
	for i := 0; i < keys; i++ {
		pages := 1 + rng.Int63n(2*mean)
		w.Dataset.Records = append(w.Dataset.Records,
			ycsb.Record{Key: fmt.Sprintf("k%d", i), Size: int(pages * 4096)})
	}
	for i := 0; i < 4000; i++ {
		w.Ops = append(w.Ops, ycsb.Op{Key: rng.Intn(1 + rng.Intn(keys)), Kind: kvstore.Read})
	}
	return w
}

// sameTrace is a fresh copy of w: the same records and trace behind a
// new pointer, so nothing w has memoized is visible through it.
func sameTrace(w *ycsb.Workload) *ycsb.Workload {
	return &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Ops: w.Ops}
}

// memoTable reads w's knapsack DP table for a coarsening unit, nil when
// no Order has solved one.
func memoTable(w *ycsb.Workload, unit int64) *knapsack.Table {
	v, _ := w.Derived(knapsackTableKey{unit}, func() (any, error) { return new(knapsackTableSlot), nil })
	slot := v.(*knapsackTableSlot)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.table
}

// analyzeShared runs the policy's Order the way a tuning candidate does:
// through a session on the shared cache.
func analyzeShared(t *testing.T, cache *core.ArtifactCache, w *ycsb.Workload, p core.TieringPolicy) core.Ordering {
	t.Helper()
	ord, err := analyze(cache, w, p)
	if err != nil {
		t.Fatal(err)
	}
	return ord
}

// analyze runs the policy's Order through a session on cache (a plain
// session when cache is nil).
func analyze(cache *core.ArtifactCache, w *ycsb.Workload, p core.TieringPolicy) (core.Ordering, error) {
	s, err := core.NewSharedSession(core.DefaultConfig(server.RedisLike, 1), w, cache)
	if err != nil {
		return core.Ordering{}, err
	}
	ord, err := s.Analyze(context.Background(), p)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("Analyze(%s): %w", p.Name(), err)
	}
	return ord, nil
}

// unitsOf reports the coarsening units a knapsack vector's ladder spans
// on a dataset of n records and totalUnits pages.
func unitsOf(t *testing.T, p knapsackPolicy, n int, totalUnits int64) map[int64]bool {
	t.Helper()
	maxCap, err := knapsackBound(n)
	if err != nil {
		t.Fatal(err)
	}
	units := map[int64]bool{}
	for _, c := range p.capacityLadder(totalUnits) {
		unit := int64(1)
		for c/unit > maxCap {
			unit *= 2
		}
		units[unit] = true
	}
	return units
}

// totalPages is the dataset's size in the knapsack policy's page units.
func totalPages(w *ycsb.Workload) int64 {
	var total int64
	for _, rec := range w.Dataset.Records {
		total += max(1, (int64(rec.Size)+4095)/4096)
	}
	return total
}

// TestKnapsackSharedTablesMatchUnshared: whatever other candidates
// solved on the workload first, a knapsack candidate orders the keys
// exactly as it does alone on a fresh copy. The datasets are about six
// DP budgets of pages, so a six-rung ladder spans coarsenings 1, 2 and 4
// and a high anchor needs 8; the fixed vectors put the anchor in another
// unit than the ladder.
func TestKnapsackSharedTablesMatchUnshared(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))
	trials := 2
	if testing.Short() {
		trials = 1 // every solve here is a full DP budget of cells
	}
	for trial := 0; trial < trials; trial++ {
		keys := 30 + rng.Intn(60)
		budgetPages := int64(dpBudget/(keys+1) - 1)
		w := pagesWorkload(rng, keys, 6*budgetPages)

		vectors := []map[string]float64{
			{"anchor": 0.05, "rungs": 1}, // ladder at 1/2 (unit 4), anchor in unit 1
			{"anchor": 0.9, "rungs": 6},  // anchor above every rung
		}
		for len(vectors) < 6 {
			vectors = append(vectors, map[string]float64{"anchor": rng.Float64(), "rungs": float64(1 + rng.Intn(6))})
		}
		pols := make([]core.TieringPolicy, len(vectors))
		want := make([]core.Ordering, len(vectors))
		for i, v := range vectors {
			var err error
			if pols[i], err = NewParams("knapsack", 1, v); err != nil {
				t.Fatal(err)
			}
			if want[i], err = pols[i].Order(ctx, sameTrace(w)); err != nil {
				t.Fatal(err)
			}
		}

		// Forwards and backwards, so every candidate reads tables that
		// another one solved.
		for _, dir := range []string{"forwards", "backwards"} {
			cache := core.NewArtifactCache()
			wd := sameTrace(w)
			for n := range pols {
				i := n
				if dir == "backwards" {
					i = len(pols) - 1 - n
				}
				got := analyzeShared(t, cache, wd, pols[i])
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("trial %d, %s, %s: the ordering read from shared tables differs from the unshared one",
						trial, dir, pols[i].Name())
				}
			}
			for _, unit := range []int64{1, 2, 4, 8} {
				if memoTable(wd, unit) == nil {
					t.Fatalf("trial %d, %s: no table for unit %d on the workload", trial, dir, unit)
				}
			}
		}
	}
}

// Each workload pointer holds its own knapsack tables: every policy
// orders either of two workloads through one cache as it does alone,
// and equal content behind a new pointer is served the cached orderings
// (keyed by content), so it solves no table at all.
func TestKnapsackTablesPerWorkload(t *testing.T) {
	ctx := context.Background()
	cache := core.NewArtifactCache()
	tables := map[*knapsack.Table]bool{}
	for round, seed := range []int64{3, 4, 3} {
		w := testWorkload(t, seed) // round 2 repeats round 0's content behind a new pointer
		for _, name := range Names() {
			p, err := New(name, 9)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Order(ctx, sameTrace(w))
			if err != nil {
				t.Fatal(err)
			}
			if got := analyzeShared(t, cache, w, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("workload seed %d, %s: ordering through the shared cache differs", seed, name)
			}
		}
		// The dataset fits the DP budget uncoarsened: one table, unit 1.
		table := memoTable(w, 1)
		switch {
		case round < 2 && (table == nil || tables[table]):
			t.Fatalf("round %d: workload table %p, want one of its own", round, table)
		case round == 2 && table != nil:
			t.Fatal("a workload whose orderings all came from the cache solved a table")
		}
		tables[table] = true
	}
}

// The memo grows on demand: a default-ladder Order on a fresh workload
// solves its table only up to its top rung's scaled capacity, not at the
// coarsening's ceiling; a later Order that needs more re-solves once at
// the ceiling, and no third solve follows.
func TestKnapsackTableGrowsOnDemand(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, 5)
	total := totalPages(w)
	if units := unitsOf(t, knapsackPolicy{anchor: 0.95}, len(w.Dataset.Records), total); !reflect.DeepEqual(units, map[int64]bool{1: true}) {
		t.Fatalf("the test needs one uncoarsened table; the ladder spans units %v", units)
	}
	if _, err := KnapsackExact.Order(ctx, w); err != nil {
		t.Fatal(err)
	}
	top := (knapsackPolicy{}).capacityLadder(total)
	if own := memoTable(w, 1); own == nil || own.Capacity() != top[len(top)-1] {
		t.Fatalf("default ladder %v left no table at its top rung on the workload (ceiling %d)", top, total)
	}
	var grown *knapsack.Table
	for _, anchor := range []float64{0.9, 0.95} {
		p, err := NewParams("knapsack", 1, map[string]float64{"anchor": anchor})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Order(ctx, w); err != nil {
			t.Fatal(err)
		}
		table := memoTable(w, 1)
		if table.Capacity() != total || (grown != nil && table != grown) {
			t.Fatalf("anchor %v: table %p of capacity %d, want one table at the ceiling %d", anchor, table, table.Capacity(), total)
		}
		grown = table
	}
}

// Eight goroutines order eight knapsack vectors, each spanning more than
// one coarsening, on one workload through every path that reaches its
// memo: a direct Order, a plain session and a session on one shared
// cache. Every ordering equals the vector's own on a fresh copy. Run it
// under -race.
func TestKnapsackTableMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	const keys = 40
	maxCap, err := knapsackBound(keys)
	if err != nil {
		t.Fatal(err)
	}
	w := pagesWorkload(rand.New(rand.NewSource(17)), keys, 3*maxCap)
	total := totalPages(w)
	vectors := [][2]float64{{0.1, 2}, {0.3, 3}, {0.5, 2}, {0.8, 4}, {0.9, 3}, {0.2, 4}, {0.7, 2}, {0.95, 5}}
	pols := make([]core.TieringPolicy, len(vectors))
	want := make([]core.Ordering, len(vectors))
	for i, v := range vectors {
		if units := unitsOf(t, knapsackPolicy{anchor: v[0], rungs: int(v[1])}, keys, total); len(units) < 2 {
			t.Fatalf("vector %v spans coarsenings %v; the test needs two or more", v, units)
		}
		if pols[i], err = NewParams("knapsack", 1, map[string]float64{"anchor": v[0], "rungs": v[1]}); err != nil {
			t.Fatal(err)
		}
		if want[i], err = pols[i].Order(ctx, sameTrace(w)); err != nil {
			t.Fatal(err)
		}
	}

	cache := core.NewArtifactCache()
	paths := []func(core.TieringPolicy) (core.Ordering, error){
		func(p core.TieringPolicy) (core.Ordering, error) { return p.Order(ctx, w) },
		func(p core.TieringPolicy) (core.Ordering, error) { return analyze(nil, w, p) },
		func(p core.TieringPolicy) (core.Ordering, error) { return analyze(cache, w, p) },
	}
	errs := make([]error, len(pols))
	var wg sync.WaitGroup
	for i := range pols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := range paths {
				path := (i + k) % len(paths) // each path is some goroutine's first
				got, err := paths[path](pols[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("path %d: the ordering differs from a fresh workload's", path)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", pols[i].Name(), err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// A dataset with more records than the DP budget has cells gets a typed
// error instead of a coarsening loop that doubles its unit to zero.
func TestKnapsackBoundRejectsHugeDatasets(t *testing.T) {
	for _, n := range []int{dpBudget - 1, dpBudget, 1 << 28} {
		maxCap, err := knapsackBound(n)
		var be *DPBudgetError
		switch {
		case n+1 <= dpBudget && (err != nil || maxCap != 0):
			t.Fatalf("%d records: (%d, %v), want capacity 0", n, maxCap, err)
		case n+1 > dpBudget && (!errors.As(err, &be) || be.Records != n || be.Budget != dpBudget):
			t.Fatalf("%d records: err = %v, want a DPBudgetError naming them", n, err)
		}
	}
	if maxCap, err := knapsackBound(39); err != nil || maxCap != dpBudget/40-1 {
		t.Fatalf("40 records: (%d, %v)", maxCap, err)
	}
}

// A plain session keeps its orderings in a cache of its own while the
// tables live on the workload. Two knapsack anchors compared in one
// plain session order the keys exactly as they do in sessions of their
// own on fresh copies of the workload.
func TestKnapsackCompareInPlainSession(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, 5)
	cfg := core.DefaultConfig(server.RedisLike, 1)
	var pols []core.TieringPolicy
	for _, anchor := range []float64{0.05, 0.9} {
		p, err := NewParams("knapsack", 1, map[string]float64{"anchor": anchor})
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, p)
	}
	s, err := core.NewSession(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := s.Compare(ctx, 0.10, pols...)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	for i, p := range pols {
		solo, err := core.NewSession(cfg, sameTrace(w))
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Analyze(ctx, p)
		if err != nil {
			t.Fatalf("Analyze(%s): %v", p.Name(), err)
		}
		if !reflect.DeepEqual(reps[i].Ordering, want) {
			t.Fatalf("%s: the ordering compared in one session differs from its own session's", p.Name())
		}
	}
}
