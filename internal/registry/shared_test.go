package registry

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnemo/internal/core"
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

// analyzeShared runs the policy's Order the way a tuning candidate does:
// through a session on the shared cache.
func analyzeShared(t *testing.T, cache *core.ArtifactCache, w *ycsb.Workload, p core.TieringPolicy) core.Ordering {
	t.Helper()
	s, err := core.NewSharedSession(core.DefaultConfig(server.RedisLike, 1), w, cache)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := s.Analyze(context.Background(), p)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", p.Name(), err)
	}
	return ord
}

// TestKnapsackSharedTablesMatchUnshared: whatever other candidates put
// in the cache first, a knapsack candidate orders the keys exactly as it
// does alone. The datasets are about six DP budgets of pages, so a
// six-rung ladder spans coarsenings 1, 2 and 4 and a high anchor needs
// 8; the fixed vectors put the anchor in another unit than the ladder.
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
			if want[i], err = pols[i].Order(ctx, w); err != nil {
				t.Fatal(err)
			}
		}

		// Forwards and backwards, so every candidate reads tables that
		// another one solved.
		for _, dir := range []string{"forwards", "backwards"} {
			cache := core.NewArtifactCache()
			for n := range pols {
				i := n
				if dir == "backwards" {
					i = len(pols) - 1 - n
				}
				got := analyzeShared(t, cache, w, pols[i])
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("trial %d, %s, %s: the ordering read from shared tables differs from the unshared one",
						trial, dir, pols[i].Name())
				}
			}
			// One table each for units 1, 2, 4 and 8.
			if st := cache.Stats(); st.AnalysisComputes != 4 || st.AnalysisHits == 0 {
				t.Fatalf("trial %d, %s: %+v, want 4 analysis artifacts computed and some reuse", trial, dir, st)
			}
		}
	}
}

// Two workloads of one shape in one cache each get their own DP table:
// every policy orders either workload as it does alone.
func TestSharedAnalysisKeyedByWorkloadContent(t *testing.T) {
	ctx := context.Background()
	cache := core.NewArtifactCache()
	for round, seed := range []int64{3, 4, 3} {
		w := testWorkload(t, seed) // round 2 repeats round 0's content behind a new pointer
		for _, name := range Names() {
			p, err := New(name, 9)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Order(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := analyzeShared(t, cache, w, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("workload seed %d, %s: ordering through the shared cache differs", seed, name)
			}
		}
		// The (single-coarsening) knapsack table, per distinct workload
		// content.
		wantComputes := int64(min(round+1, 2))
		if st := cache.Stats(); st.AnalysisComputes != wantComputes {
			t.Fatalf("after round %d: %d analysis artifacts computed, want %d", round, st.AnalysisComputes, wantComputes)
		}
	}
}

// A plain session keeps its artifacts in a cache of its own, and that
// cache must not hold the knapsack tables: an unshared table is solved
// only up to the asking policy's own ladder. Two knapsack anchors
// compared in one plain session order the keys exactly as they do in
// two sessions of their own.
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
		solo, err := core.NewSession(cfg, w)
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
