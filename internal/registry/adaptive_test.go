package registry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
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

// recordingPolicy is MnemoT that keeps the trace of the last workload
// it ordered.
type recordingPolicy struct{ ops []ycsb.Op }

func (p *recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) Order(ctx context.Context, w *ycsb.Workload) (core.Ordering, error) {
	p.ops = p.ops[:0]
	if err := w.ForEachOp(func(key int, kind kvstore.OpKind) { p.ops = append(p.ops, ycsb.Op{Key: key, Kind: kind}) }); err != nil {
		return core.Ordering{}, err
	}
	return core.MnemoT.Order(ctx, w)
}

// TestAdaptiveWrapperObservesEpochCounts: the wrapper hands its inner
// policy the epoch's counts expanded as reads then writes per record, in
// index order, and plans its moves from the inner policy's ordering of
// exactly that trace.
func TestAdaptiveWrapperObservesEpochCounts(t *testing.T) {
	w := convergenceWorkload(t)
	n := len(w.Dataset.Records)
	st := server.EpochStats{Reads: make([]int32, n), Writes: make([]int32, n), Tiers: make([]memsim.Tier, n)}
	var want []ycsb.Op
	for i := range n {
		st.Reads[i], st.Writes[i] = int32(i%5), int32(i%3)
		for range st.Reads[i] {
			want = append(want, ycsb.Op{Key: i, Kind: kvstore.Read})
		}
		for range st.Writes[i] {
			want = append(want, ycsb.Op{Key: i, Kind: kvstore.Write})
		}
		if i < n/2 { // the cold half starts in FastMem
			st.Tiers[i] = memsim.Fast
		} else {
			st.Tiers[i] = memsim.Slow
		}
	}
	st.Ops = len(want)

	rec := &recordingPolicy{}
	ob, err := Adaptive(rec).Begin(w)
	if err != nil {
		t.Fatal(err)
	}
	moves := slices.Clone(ob.Observe(st))
	if !slices.Equal(rec.ops, want) {
		t.Fatalf("inner policy saw %d ops, want the %d expanded from the counts in index order", len(rec.ops), len(want))
	}

	spec := w.Spec
	spec.Requests = len(want)
	ord, err := core.MnemoT.Order(context.Background(), &ycsb.Workload{Spec: spec, Dataset: w.Dataset, Ops: want})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(ord.Keys))
	for i, k := range ord.Keys {
		order[i] = k.Index
	}
	plan := newMoveScratch(w.Dataset.Records)
	if wantMoves := plan.planMoves(order, st.Tiers); len(moves) == 0 || !slices.Equal(moves, wantMoves) {
		t.Fatalf("moves %v, want %v", moves, wantMoves)
	}
}

// TestPlanMovesPreservesBudgetAndSkipsDegenerate covers the move
// planner's guardrails directly.
func TestPlanMovesPreservesBudgetAndSkipsDegenerate(t *testing.T) {
	recs := []ycsb.Record{{Size: 1024}, {Size: 1024}, {Size: 1024}, {Size: 1024}}
	plan := func(order []int, tiers []memsim.Tier) []server.Move {
		s := newMoveScratch(recs)
		return s.planMoves(order, tiers)
	}
	allSlow := []memsim.Tier{memsim.Slow, memsim.Slow, memsim.Slow, memsim.Slow}
	if moves := plan([]int{0, 1, 2, 3}, allSlow); moves != nil {
		t.Fatalf("all-slow placement produced moves: %v", moves)
	}
	allFast := []memsim.Tier{memsim.Fast, memsim.Fast, memsim.Fast, memsim.Fast}
	if moves := plan([]int{3, 2, 1, 0}, allFast); moves != nil {
		t.Fatalf("all-fast placement produced moves: %v", moves)
	}
	// One fast slot, priority order wants record 2: swap, nothing more.
	tiers := []memsim.Tier{memsim.Fast, memsim.Slow, memsim.Slow, memsim.Slow}
	moves := plan([]int{2, 0, 1, 3}, tiers)
	wantDemote := server.Move{Index: 0, To: memsim.Slow}
	wantPromote := server.Move{Index: 2, To: memsim.Fast}
	if len(moves) != 2 || moves[0] != wantDemote && moves[1] != wantDemote ||
		moves[0] != wantPromote && moves[1] != wantPromote {
		t.Fatalf("single-slot swap planned %v", moves)
	}
}

// newFreqObserver begins an adaptive-freq run over n records of random
// sizes and seeds its scores, keeping the carried ranking consistent.
func newFreqObserver(t *testing.T, rng *rand.Rand, n int, decay float64, score func(i int) float64) (*freqObserver, []ycsb.Record) {
	t.Helper()
	recs := make([]ycsb.Record, n)
	for i := range recs {
		recs[i].Size = 512 << rng.Intn(4)
	}
	obsv, err := AdaptiveFreq(decay).Begin(&ycsb.Workload{Dataset: ycsb.Dataset{Records: recs}})
	if err != nil {
		t.Fatal(err)
	}
	o := obsv.(*freqObserver)
	for i := range o.score {
		o.score[i] = score(i)
	}
	copy(o.order, scoreOrder(o.score))
	for k, idx := range o.order {
		o.keys[k] = rankKey(o.score[idx])
	}
	return o, recs
}

// observeChecked runs one epoch and checks the observer against the
// oracles: the ranking equals a full scoreOrder of the scores, the
// carried keys are the ranking's, and the moves planned from reused
// scratch equal the moves planned from fresh scratch. It applies the
// moves to tiers so the next epoch starts from a new placement.
func observeChecked(t *testing.T, o *freqObserver, recs []ycsb.Record, tiers []memsim.Tier, reads, writes []int32, what string) {
	t.Helper()
	moves := o.Observe(server.EpochStats{Reads: reads, Writes: writes, Tiers: tiers})
	if want := scoreOrder(o.score); !slices.Equal(o.order, want) {
		t.Fatalf("%s: incremental ranking diverged from the full sort", what)
	}
	for k, idx := range o.order {
		if o.keys[k] != rankKey(o.score[idx]) {
			t.Fatalf("%s: rank %d carries key %#x, score %v has %#x", what, k, o.keys[k], o.score[idx], rankKey(o.score[idx]))
		}
	}
	fresh := newMoveScratch(recs)
	if want := fresh.planMoves(o.order, tiers); !slices.Equal(moves, want) {
		t.Fatalf("%s: reused scratch planned %v, fresh scratch %v", what, moves, want)
	}
	for _, m := range moves {
		tiers[m.Index] = m.To
	}
}

// randomTiers returns a random placement of n records.
func randomTiers(rng *rand.Rand, n int) []memsim.Tier {
	tiers := make([]memsim.Tier, n)
	for i := range tiers {
		tiers[i] = memsim.Tier(rng.Intn(2))
	}
	return tiers
}

// TestRerankMatchesFullSort is the property behind the O(touched) epoch
// boundary: after every epoch of a random count stream the observer's
// incrementally maintained ranking equals a full scoreOrder of its
// scores, and the moves planned from reused scratch equal the moves
// planned from fresh scratch. The streams cover epochs touching no key,
// every key and a sparse subset, duplicate scores, and — via decay < 1
// on scores seeded near the bottom of the float64 range — scores that a
// decay step collapses into ties the index must break. The subtests
// cover the radix sort's edges.
func TestRerankMatchesFullSort(t *testing.T) {
	const n, epochs = 257, 40
	for _, decay := range []float64{1, 0.9, 0.5} {
		rng := rand.New(rand.NewSource(int64(decay * 1000)))
		// Distinct denormal scores ascending in index, so the seeded
		// ranking is the reverse identity: a decay step rounds neighbours
		// into ties, which the index then orders the other way round.
		o, recs := newFreqObserver(t, rng, n, decay, func(i int) float64 { return float64(i+1) * 5e-324 })
		tiers := randomTiers(rng, n)
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
			observeChecked(t, o, recs, tiers, reads, writes, fmt.Sprintf("decay %v epoch %d", decay, epoch))
		}
	}

	// Scores 2^40 + i·2^-12 are one ulp apart, and adding an integer
	// count keeps the low twelve mantissa bits: touched keys agree in
	// every radix digit but the lowest, so five of the six passes skip.
	t.Run("low_digit_only", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		o, recs := newFreqObserver(t, rng, n, 1, func(i int) float64 { return 0x1p40 + float64(i)*0x1p-12 })
		tiers := randomTiers(rng, n)
		reads, writes := make([]int32, n), make([]int32, n)
		for epoch := 0; epoch < 6; epoch++ {
			for i := range reads {
				reads[i] = 0
				if epoch%2 == 0 || i%3 == 0 {
					reads[i] = 1
				}
			}
			observeChecked(t, o, recs, tiers, reads, writes, fmt.Sprintf("epoch %d", epoch))
		}
	})

	// +0 scores next to touched records, and the minimum denormal, which
	// one halving rounds to +0: the odd records rank first and the even
	// ones, tied with them now, fall out of place behind them — 31
	// untouched records on the side list next to the one touched.
	t.Run("zero_ties_and_strays", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		o, recs := newFreqObserver(t, rng, 64, 0.5, func(i int) float64 {
			if i%2 == 0 {
				return 0
			}
			return 5e-324
		})
		tiers := randomTiers(rng, 64)
		reads, writes := make([]int32, 64), make([]int32, 64)
		reads[10] = 1
		observeChecked(t, o, recs, tiers, reads, writes, "collapse")
		if len(o.side) != 32 {
			t.Fatalf("collapse epoch sorted %d records, want 31 strays and 1 touched", len(o.side))
		}
		clear(reads)
		writes[0], writes[63] = 1, 2
		observeChecked(t, o, recs, tiers, reads, writes, "touch beside +0")
	})

	t.Run("one_touched", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		o, recs := newFreqObserver(t, rng, n, 0.9, func(i int) float64 { return float64(rng.Intn(5)) })
		tiers := randomTiers(rng, n)
		reads, writes := make([]int32, n), make([]int32, n)
		for epoch := 0; epoch < 8; epoch++ {
			clear(reads)
			reads[rng.Intn(n)] = int32(1 + rng.Intn(3))
			observeChecked(t, o, recs, tiers, reads, writes, fmt.Sprintf("epoch %d", epoch))
		}
	})

	t.Run("one_record", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		o, recs := newFreqObserver(t, rng, 1, 0.5, func(int) float64 { return 0 })
		tiers := []memsim.Tier{memsim.Fast}
		reads, writes := make([]int32, 1), make([]int32, 1)
		for epoch := 0; epoch < 4; epoch++ {
			reads[0] = int32(epoch % 2)
			observeChecked(t, o, recs, tiers, reads, writes, fmt.Sprintf("epoch %d", epoch))
		}
	})

	// Counts near math.MaxInt32 on both kinds: the widest scores an
	// epoch can add.
	t.Run("max_counts", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		o, recs := newFreqObserver(t, rng, n, 0.9, func(int) float64 { return 0 })
		tiers := randomTiers(rng, n)
		reads, writes := make([]int32, n), make([]int32, n)
		for epoch := 0; epoch < 6; epoch++ {
			for i := range reads {
				reads[i], writes[i] = 0, 0
				if rng.Intn(4) == 0 {
					reads[i] = math.MaxInt32 - int32(rng.Intn(3))
					writes[i] = math.MaxInt32 - int32(rng.Intn(2))
				}
			}
			observeChecked(t, o, recs, tiers, reads, writes, fmt.Sprintf("epoch %d", epoch))
		}
	})
}

// driftEpochs tallies a hot_drift trace of 10 000 records into 4096-op
// epochs — the adaptive_drift benchmark's shape, ≈2 000 records touched
// per epoch — and returns the epochs' counts with a 50/50 random
// placement.
func driftEpochs(tb testing.TB, epochs int) (*ycsb.Workload, [][2][]int32, []memsim.Tier) {
	tb.Helper()
	const n, epochOps = 10000, 4096
	w, err := ResolveWorkload("hot_drift", 1, n, epochs*epochOps)
	if err != nil {
		tb.Fatal(err)
	}
	counts := make([][2][]int32, epochs)
	for e := range counts {
		reads, writes := make([]int32, n), make([]int32, n)
		for _, op := range w.Ops[e*epochOps : (e+1)*epochOps] {
			if op.Kind == kvstore.Read {
				reads[op.Key]++
			} else {
				writes[op.Key]++
			}
		}
		counts[e] = [2][]int32{reads, writes}
	}
	rng := rand.New(rand.NewSource(1))
	return w, counts, randomTiers(rng, n)
}

// TestFreqObserveWarmAllocs pins DESIGN.md §15's claim that a warm epoch
// boundary allocates nothing: after the first epoch, Observe reuses its
// ranking, radix and planning buffers.
func TestFreqObserveWarmAllocs(t *testing.T) {
	w, counts, tiers := driftEpochs(t, 8)
	obsv, err := AdaptiveFreq(DefaultDecay).Begin(w)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(e int) {
		for _, m := range obsv.Observe(server.EpochStats{Epoch: e, Reads: counts[e][0], Writes: counts[e][1], Tiers: tiers}) {
			tiers[m.Index] = m.To
		}
	}
	observe(0)
	e := 0
	if allocs := testing.AllocsPerRun(20, func() {
		e++
		observe(e % len(counts))
	}); allocs != 0 {
		t.Fatalf("warm Observe allocates %v times per epoch, want 0", allocs)
	}
}

// BenchmarkFreqObserve times one adaptive-freq epoch boundary — decay,
// re-rank and move planning — on hot_drift epochs of 10 000 records,
// ≈2 000 touched, starting from a 50/50 placement.
func BenchmarkFreqObserve(b *testing.B) {
	w, counts, tiers := driftEpochs(b, 16)
	obsv, err := AdaptiveFreq(DefaultDecay).Begin(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % len(counts)
		for _, m := range obsv.Observe(server.EpochStats{Epoch: i, Reads: counts[e][0], Writes: counts[e][1], Tiers: tiers}) {
			tiers[m.Index] = m.To
		}
	}
}

// TestAdaptiveLedgerInSink: a run with epochs publishes its migration
// ledger on the live sink — epochs, records migrated and bytes copied,
// equal to its RunStats, unsharded and on a cluster — and a static run
// publishes none of it.
func TestAdaptiveLedgerInSink(t *testing.T) {
	w, err := ResolveWorkload("hot_drift", 1, 300, 16384)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Dataset.Records)
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	p := server.FastIndices(half, n)
	ledger := []string{"mnemo_client_epochs_total", "mnemo_client_migrations_total", "mnemo_client_migrated_bytes_total"}
	for _, shards := range []int{0, 4} {
		cfg := server.DefaultConfig(server.RedisLike, 1)
		cfg.Shards = shards
		cfg.Obs = obs.NewSink()
		runs, err := client.Measure(context.Background(), w, 1, 0, cfg.Obs, []client.Leg{{Cfg: cfg, Placement: p}})
		if err != nil {
			t.Fatal(err)
		}
		static := runs[0]
		var dump strings.Builder
		if err := cfg.Obs.Registry().WritePrometheus(&dump); err != nil {
			t.Fatal(err)
		}
		for _, name := range ledger {
			if strings.Contains(dump.String(), name) {
				t.Errorf("shards %d: static run (%d epochs) published %s", shards, static.Epochs, name)
			}
		}

		cfg.Obs = obs.NewSink()
		cfg.Adaptive = AdaptiveFreq(DefaultDecay)
		cfg.EpochOps = 4096
		runs, err = client.Measure(context.Background(), w, 1, 0, cfg.Obs, []client.Leg{{Cfg: cfg, Placement: p}})
		if err != nil {
			t.Fatal(err)
		}
		st := runs[0]
		if st.Epochs == 0 || st.MovesApplied == 0 || st.MigratedBytes == 0 {
			t.Fatalf("shards %d: adaptive run migrated nothing (%d epochs, %d moves, %d bytes)", shards, st.Epochs, st.MovesApplied, st.MigratedBytes)
		}
		for i, want := range []int64{int64(st.Epochs), int64(st.MovesApplied), st.MigratedBytes} {
			if got := cfg.Obs.Counter(ledger[i]).Value(); got != want {
				t.Errorf("shards %d: %s = %d, RunStats says %d", shards, ledger[i], got, want)
			}
		}
	}
}
