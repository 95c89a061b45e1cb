package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/knapsack"
	"mnemo/internal/kvstore"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func testWorkload(t *testing.T, seed int64) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name:      "regtest",
		Keys:      200,
		Requests:  4000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.1, HotOpnFraction: 0.9},
		ReadRatio: 0.9,
		Sizes:     ycsb.SizeTrendingPreview,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCatalog(t *testing.T) {
	names := Names()
	want := []string{"freqdecay", "knapsack", "mnemot", "pagesample", "tahoe", "touch"}
	if len(names) < len(want) {
		t.Fatalf("catalog has %d policies: %v", len(names), names)
	}
	for _, n := range want {
		e, ok := ByName(n)
		if !ok {
			t.Fatalf("policy %q not registered", n)
		}
		if e.Description == "" {
			t.Errorf("policy %q has no description", n)
		}
		p, err := New(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Errorf("New(%q) built policy named %q", n, p.Name())
		}
	}
	if len(Entries()) != len(names) {
		t.Error("Entries and Names disagree")
	}
}

func TestStandaloneAlias(t *testing.T) {
	p, err := New("standalone", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "touch" {
		t.Fatalf("alias resolved to %q", p.Name())
	}
	if _, err := New("bogus", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRegisterRejectsCollisions(t *testing.T) {
	if err := Register(Entry{Name: "", New: func(int64) core.TieringPolicy { return core.Touch }}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Entry{Name: "nilctor"}); err == nil {
		t.Error("nil constructor accepted")
	}
	if err := Register(Entry{Name: "touch", New: func(int64) core.TieringPolicy { return core.Touch }}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := Register(Entry{Name: "standalone", New: func(int64) core.TieringPolicy { return core.Touch }}); err == nil {
		t.Error("alias shadowing accepted")
	}
}

// TestEveryPolicyOrdersCompletely runs every cataloged policy through a
// session Analyze, which enforces the full-coverage contract.
func TestEveryPolicyOrdersCompletely(t *testing.T) {
	w := testWorkload(t, 11)
	for _, e := range Entries() {
		p := e.New(11)
		ord, err := p.Order(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if ord.Name != e.Name {
			t.Errorf("%s: ordering named %q", e.Name, ord.Name)
		}
		seen := map[string]bool{}
		for _, k := range ord.Keys {
			if seen[k.Key] {
				t.Fatalf("%s: key %q repeated", e.Name, k.Key)
			}
			seen[k.Key] = true
		}
		if len(seen) != len(w.Dataset.Records) {
			t.Fatalf("%s: ordered %d of %d keys", e.Name, len(seen), len(w.Dataset.Records))
		}
	}
}

// TestPoliciesRejectCorruptTrace: no policy advises from a trace that
// fails to read. The last frame's stored checksum is flipped, so every
// frame before it decodes and the error surfaces only at the end.
func TestPoliciesRejectCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.mtrc")
	if err := trace.WriteWorkload(testWorkload(t, 16), path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			w, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			ord, err := e.New(16).Order(context.Background(), w)
			if !errors.Is(err, trace.ErrChecksum) {
				t.Fatalf("err = %v with %d keys ordered, want trace.ErrChecksum", err, len(ord.Keys))
			}
		})
	}
}

func TestTahoeOrdersByFrequency(t *testing.T) {
	w := testWorkload(t, 12)
	ord, err := Tahoe.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ord.Keys); i++ {
		if ord.Keys[i].Accesses() > ord.Keys[i-1].Accesses() {
			t.Fatalf("access counts not descending at %d", i)
		}
	}
}

func TestFreqDecayWeighsRecency(t *testing.T) {
	// Key 0 is hot early, key 1 equally hot late; decay must rank the
	// recent key first even though the raw counts tie.
	w := testWorkload(t, 13)
	ops := make([]ycsb.Op, 0, len(w.Ops))
	half := len(w.Ops) / 2
	for i := range w.Ops {
		op := w.Ops[i]
		if i < half {
			op.Key = 0
		} else {
			op.Key = 1
		}
		ops = append(ops, op)
	}
	w.Ops = ops
	ord, err := FreqDecay(8, 0.5).Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ord.Keys[0].Index != 1 {
		t.Fatalf("recent-hot key ranked %d, early-hot first", ord.Keys[0].Index)
	}
	// Parameter validation.
	if _, err := FreqDecay(0, 0.5).Order(context.Background(), w); err == nil {
		t.Error("zero epochs accepted")
	}
	if _, err := FreqDecay(8, 0).Order(context.Background(), w); err == nil {
		t.Error("zero decay accepted")
	}
	if _, err := FreqDecay(8, 1.5).Order(context.Background(), w); err == nil {
		t.Error("decay > 1 accepted")
	}
}

func TestPageSampleStateAndDeterminism(t *testing.T) {
	w := testWorkload(t, 14)
	p := PageSample(1, 99)
	ord1, err := p.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples() == 0 {
		t.Fatal("rate-1 profiling collected no samples")
	}
	p2 := PageSample(1, 99)
	ord2, err := p2.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ord1.Keys {
		if ord1.Keys[i].Key != ord2.Keys[i].Key {
			t.Fatalf("same-seed profiling orders diverge at %d", i)
		}
	}
	if _, err := PageSample(0, 1).Order(context.Background(), w); err == nil {
		t.Error("non-positive rate accepted")
	}
	// Above MaxInt32 rand.Intn would switch from Int31n to Int63n, a
	// different draw than the profiler reproduces.
	if _, err := PageSample(math.MaxInt32+1, 1).Order(context.Background(), w); err == nil {
		t.Error("rate above MaxInt32 accepted")
	}
	// Sparse sampling collects strictly fewer observations.
	sparse := PageSample(4000, 99)
	if _, err := sparse.Order(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if sparse.Samples() >= p.Samples() {
		t.Fatalf("rate-4000 took %d samples, rate-1 took %d", sparse.Samples(), p.Samples())
	}
}

func TestKnapsackTiersRespectOptima(t *testing.T) {
	w := testWorkload(t, 15)
	ord, err := KnapsackExact.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	// The knapsack front should concentrate at least as much heat as the
	// same-prefix tail: the first quarter of keys must carry more accesses
	// than the last quarter.
	q := len(ord.Keys) / 4
	var front, back int
	for _, k := range ord.Keys[:q] {
		front += k.Accesses()
	}
	for _, k := range ord.Keys[len(ord.Keys)-q:] {
		back += k.Accesses()
	}
	if front <= back {
		t.Fatalf("knapsack front (%d accesses) no hotter than tail (%d)", front, back)
	}
	// Cancellation propagates out of the DP ladder.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KnapsackExact.Order(ctx, w); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestResolveWorkload(t *testing.T) {
	w, err := ResolveWorkload("trending", 42, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Spec.Name != "trending" {
		t.Fatalf("resolved %q", w.Spec.Name)
	}
	w, err = ResolveWorkload("trending", 42, 123, 456)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Dataset.Records) != 123 || len(w.Ops) != 456 {
		t.Fatalf("overrides ignored: %d keys, %d ops", len(w.Dataset.Records), len(w.Ops))
	}
	w, err = ResolveWorkload("ycsb_f", 42, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Dataset.Records) != 100 {
		t.Fatalf("ycsb_f keys override ignored: %d", len(w.Dataset.Records))
	}
	if _, err := ResolveWorkload("nope", 42, 0, 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ResolveWorkload("trending", 42, -1, 0); err == nil {
		t.Error("negative keys accepted")
	}
	if _, err := ResolveWorkload("trending", 42, 0, -1); err == nil {
		t.Error("negative requests accepted")
	}
}

// TestKnapsackSharedTableMatchesPerRungDP pins the shared ladder table
// against the definition it replaced: one independent exact DP per
// rung, each at its own coarsening. The dataset is sized so the top rung
// needs a coarser unit than the lower two, covering both a shared table
// and the boundary between two.
func TestKnapsackSharedTableMatchesPerRungDP(t *testing.T) {
	const keys, pageUnit = 1500, 4096
	rng := rand.New(rand.NewSource(23))
	w := &ycsb.Workload{}
	for i := 0; i < keys; i++ {
		w.Dataset.Records = append(w.Dataset.Records,
			ycsb.Record{Key: fmt.Sprintf("k%d", i), Size: (1 + rng.Intn(39)) * pageUnit})
	}
	for i := 0; i < 20000; i++ {
		w.Ops = append(w.Ops, ycsb.Op{Key: int(float64(keys) * math.Pow(rng.Float64(), 3)), Kind: kvstore.Read})
	}
	p := knapsackPolicy{anchor: 0.31}
	got, err := p.Order(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}

	stats, err := core.KeyStats(w)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]knapsack.Item, keys)
	var totalUnits int64
	for i, k := range stats {
		items[i] = knapsack.Item{Weight: int64(k.Size / pageUnit), Profit: float64(k.Accesses())}
		totalUnits += items[i].Weight
	}
	capacities := p.capacityLadder(totalUnits)
	tiers := make([]int, keys)
	for i := range tiers {
		tiers[i] = len(capacities) + 1
	}
	units := map[int64]bool{}
	for tier, capUnits := range capacities {
		unit := int64(1)
		for int64(keys+1)*(capUnits/unit+1) > dpBudget {
			unit *= 2
		}
		units[unit] = true
		scaled := make([]knapsack.Item, keys)
		for i, it := range items {
			scaled[i] = knapsack.Item{Weight: (it.Weight + unit - 1) / unit, Profit: it.Profit}
		}
		picked, _ := knapsack.Exact(scaled, capUnits/unit)
		for i, in := range picked {
			if in && tier < tiers[i] {
				tiers[i] = tier
			}
		}
	}
	if len(capacities) != 4 || len(units) != 2 {
		t.Fatalf("ladder %v uses coarsenings %v; the test needs 4 rungs over 2 units", capacities, units)
	}
	want := identityOrder(keys)
	sort.SliceStable(want, func(a, b int) bool {
		ia, ib := want[a], want[b]
		if tiers[ia] != tiers[ib] {
			return tiers[ia] < tiers[ib]
		}
		da, db := items[ia].Profit/float64(items[ia].Weight), items[ib].Profit/float64(items[ib].Weight)
		if da != db {
			return da > db
		}
		return ia < ib
	})
	for i, k := range got.Keys {
		if k.Index != want[i] {
			t.Fatalf("rank %d: shared-table ladder placed record %d, per-rung DP %d", i, k.Index, want[i])
		}
	}
}
