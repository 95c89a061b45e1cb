package registry

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// convergenceWorkload is a stationary hotspot trace: 400 fixed-1KB keys,
// a 20% hot set taking 90% of the requests, long enough for several
// 4096-op epochs.
func convergenceWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "converge", Keys: 400, Requests: 32768,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeFixed1KB, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// accessOrder returns record indices sorted by descending whole-trace
// access count — the static oracle a stationary trace converges to.
func accessOrder(w *ycsb.Workload) []int {
	counts := make([]int, len(w.Dataset.Records))
	for _, op := range w.Ops {
		counts[op.Key]++
	}
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	return order
}

// TestAdaptiveFreqConvergesToOracle pins the stationary-convergence
// guarantee: on a trace whose hot set never moves, adaptive-freq started
// from the worst possible placement (the coldest records in FastMem)
// must migrate to within ε of the static-oracle placement — the hottest
// records, at the same fast-byte budget.
func TestAdaptiveFreqConvergesToOracle(t *testing.T) {
	w := convergenceWorkload(t)
	n := len(w.Dataset.Records)
	oracle := accessOrder(w)
	k := n / 5 // the oracle fast set: exactly the hot records' budget

	cfg := server.DefaultConfig(server.RedisLike, 5)
	cfg.Adaptive = AdaptiveFreq(DefaultDecay)
	cfg.EpochOps = 4096
	d := server.NewDeployment(cfg)
	// Worst case: the k coldest records occupy the fast tier.
	coldest := append([]int(nil), oracle[n-k:]...)
	if err := d.Load(w.Dataset, server.FastIndices(coldest, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RunCtx(context.Background(), d, w, 0); err != nil {
		t.Fatal(err)
	}

	want := make(map[int]bool, k)
	for _, idx := range oracle[:k] {
		want[idx] = true
	}
	var overlap, fast int
	for i, tier := range d.RecordTiers() {
		if tier == memsim.Fast {
			fast++
			if want[i] {
				overlap++
			}
		}
	}
	if fast != k {
		t.Fatalf("fast set grew from %d to %d records — planMoves must preserve the byte budget", k, fast)
	}
	if min := (k * 9) / 10; overlap < min {
		t.Fatalf("after the run only %d/%d fast records are oracle-hot (want ≥ %d)", overlap, k, min)
	}
}

// TestAdaptiveWrapperStaticOrderMatchesInner: the wrapper's Order is the
// inner policy's, renamed — the static degenerate case of the tentpole.
func TestAdaptiveWrapperStaticOrderMatchesInner(t *testing.T) {
	w := convergenceWorkload(t)
	inner, err := core.MnemoT.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Adaptive(core.MnemoT).Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name != "adaptive-mnemot" {
		t.Fatalf("wrapper ordering name %q", wrapped.Name)
	}
	for i := range inner.Keys {
		if inner.Keys[i].Index != wrapped.Keys[i].Index {
			t.Fatalf("rank %d: wrapper ordered record %d, inner %d", i, wrapped.Keys[i].Index, inner.Keys[i].Index)
		}
	}
}

// TestPlanMovesPreservesBudgetAndSkipsDegenerate covers the move
// planner's guardrails directly.
func TestPlanMovesPreservesBudgetAndSkipsDegenerate(t *testing.T) {
	recs := []ycsb.Record{{Size: 1024}, {Size: 1024}, {Size: 1024}, {Size: 1024}}
	allSlow := []memsim.Tier{memsim.Slow, memsim.Slow, memsim.Slow, memsim.Slow}
	if moves := new(moveScratch).planMoves([]int{0, 1, 2, 3}, recs, allSlow); moves != nil {
		t.Fatalf("all-slow placement produced moves: %v", moves)
	}
	allFast := []memsim.Tier{memsim.Fast, memsim.Fast, memsim.Fast, memsim.Fast}
	if moves := new(moveScratch).planMoves([]int{3, 2, 1, 0}, recs, allFast); moves != nil {
		t.Fatalf("all-fast placement produced moves: %v", moves)
	}
	// One fast slot, priority order wants record 2: swap, nothing more.
	tiers := []memsim.Tier{memsim.Fast, memsim.Slow, memsim.Slow, memsim.Slow}
	moves := new(moveScratch).planMoves([]int{2, 0, 1, 3}, recs, tiers)
	wantDemote := server.Move{Index: 0, To: memsim.Slow}
	wantPromote := server.Move{Index: 2, To: memsim.Fast}
	if len(moves) != 2 || moves[0] != wantDemote && moves[1] != wantDemote ||
		moves[0] != wantPromote && moves[1] != wantPromote {
		t.Fatalf("single-slot swap planned %v", moves)
	}
}

// TestRerankMatchesFullSort is the property behind the O(touched) epoch
// boundary: after every epoch of a random count stream the observer's
// incrementally maintained ranking equals a full scoreOrder of its
// scores, and the moves planned from reused scratch equal the moves
// planned from fresh scratch. The streams cover epochs touching no key,
// every key and a sparse subset, duplicate scores, and — via decay < 1
// on scores seeded near the bottom of the float64 range — scores that a
// decay step collapses into ties the index must break.
func TestRerankMatchesFullSort(t *testing.T) {
	const n, epochs = 257, 40
	for _, decay := range []float64{1, 0.9, 0.5} {
		rng := rand.New(rand.NewSource(int64(decay * 1000)))
		recs := make([]ycsb.Record, n)
		for i := range recs {
			recs[i].Size = 512 << rng.Intn(4)
		}
		w := &ycsb.Workload{Dataset: ycsb.Dataset{Records: recs}}
		obsv, err := AdaptiveFreq(decay).Begin(w)
		if err != nil {
			t.Fatal(err)
		}
		o := obsv.(*freqObserver)
		// Distinct denormal scores ascending in index, so the seeded
		// ranking is the reverse identity: a decay step rounds neighbours
		// into ties, which the index then orders the other way round.
		for i := range o.score {
			o.score[i] = float64(i+1) * 5e-324
		}
		copy(o.order, scoreOrder(o.score))
		tiers := make([]memsim.Tier, n)
		for i := range tiers {
			tiers[i] = memsim.Tier(rng.Intn(2))
		}
		reads, writes := make([]int32, n), make([]int32, n)
		for epoch := 0; epoch < epochs; epoch++ {
			clear(reads)
			clear(writes)
			var touch float64 // share of keys the epoch accesses
			switch epoch % 4 {
			case 1:
				touch = 1
			case 2:
				touch = 0.05
			case 3:
				touch = 0.5
			}
			for i := range reads {
				if rng.Float64() < touch {
					// Small counts make duplicate scores common.
					reads[i], writes[i] = int32(rng.Intn(3)), int32(rng.Intn(2))
				}
			}
			moves := o.Observe(server.EpochStats{Epoch: epoch, Reads: reads, Writes: writes, Tiers: tiers})
			if want := scoreOrder(o.score); !slices.Equal(o.order, want) {
				t.Fatalf("decay %v epoch %d: incremental ranking diverged from the full sort", decay, epoch)
			}
			if want := new(moveScratch).planMoves(o.order, recs, tiers); !slices.Equal(moves, want) {
				t.Fatalf("decay %v epoch %d: reused scratch planned %v, fresh scratch %v", decay, epoch, moves, want)
			}
			// Apply the plan so the next epoch starts from a new placement.
			for _, m := range moves {
				tiers[m.Index] = m.To
			}
		}
	}
}
