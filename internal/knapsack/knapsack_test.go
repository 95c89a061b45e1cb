package knapsack

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestDensityOrder(t *testing.T) {
	items := []Item{
		{Weight: 10, Profit: 10}, // density 1
		{Weight: 1, Profit: 5},   // density 5
		{Weight: 100, Profit: 1}, // density 0.01
		{Weight: 2, Profit: 4},   // density 2
	}
	order := DensityOrder(items)
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDensityOrderZeroWeightFirst(t *testing.T) {
	items := []Item{{Weight: 1, Profit: 100}, {Weight: 0, Profit: 1}}
	order := DensityOrder(items)
	if order[0] != 1 {
		t.Fatalf("zero-weight item not first: %v", order)
	}
}

func TestDensityOrderTiesStable(t *testing.T) {
	items := []Item{{Weight: 2, Profit: 2}, {Weight: 4, Profit: 4}, {Weight: 1, Profit: 1}}
	order := DensityOrder(items)
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order = %v, want index order", order)
		}
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	items := []Item{
		{Weight: 6, Profit: 12}, // density 2
		{Weight: 5, Profit: 5},  // density 1
		{Weight: 4, Profit: 3},  // density 0.75
	}
	picked, profit := Greedy(items, 10)
	if !picked[0] || picked[1] || !picked[2] {
		t.Fatalf("picked = %v; greedy should skip the 5-weight and take the 4-weight", picked)
	}
	if profit != 15 {
		t.Fatalf("profit = %v, want 15", profit)
	}
	if TotalWeight(items, picked) > 10 {
		t.Fatal("capacity violated")
	}
}

func TestGreedyZeroCapacity(t *testing.T) {
	picked, profit := Greedy([]Item{{Weight: 1, Profit: 1}}, 0)
	if picked[0] || profit != 0 {
		t.Fatal("zero capacity packed something")
	}
}

func TestExactKnownInstance(t *testing.T) {
	// Classic: greedy is suboptimal here, exact is not.
	items := []Item{
		{Weight: 10, Profit: 60}, // density 6
		{Weight: 20, Profit: 100},
		{Weight: 30, Profit: 120},
	}
	_, exactProfit := Exact(items, 50)
	if exactProfit != 220 {
		t.Fatalf("exact profit = %v, want 220", exactProfit)
	}
}

func TestExactBeatsOrMatchesGreedyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		n := 1 + rng.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: int64(1 + rng.Intn(30)), Profit: float64(rng.Intn(100))}
		}
		capacity := int64(rng.Intn(100))
		gp, gprofit := Greedy(items, capacity)
		ep, eprofit := Exact(items, capacity)
		if TotalWeight(items, gp) > capacity || TotalWeight(items, ep) > capacity {
			return false
		}
		return eprofit >= gprofit-1e-9
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExactPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Exact([]Item{{Weight: -1, Profit: 1}}, 10) },
		func() { Exact(nil, -1) },
		func() { Greedy(nil, -1) },
		func() { Solve(nil, 3).Picked(4) },
		func() {
			big := make([]Item, 100000)
			Exact(big, 1<<40)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTotalWeight(t *testing.T) {
	items := []Item{{Weight: 3}, {Weight: 5}, {Weight: 7}}
	if got := TotalWeight(items, []bool{true, false, true}); got != 10 {
		t.Fatalf("TotalWeight = %d", got)
	}
}

// TestSolvePickedMatchesExactAtEveryCapacity: one table solved at C
// answers every capacity c ≤ C with the picked set and profit a
// dedicated Exact(items, c) produces — the property the knapsack
// policy's shared ladder table rests on. Zero-weight items are included.
func TestSolvePickedMatchesExactAtEveryCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		items := make([]Item, 1+rng.Intn(14))
		for i := range items {
			items[i] = Item{Weight: int64(rng.Intn(25)), Profit: float64(rng.Intn(40))}
		}
		maxCap := int64(rng.Intn(150))
		table := Solve(items, maxCap)
		for c := int64(0); c <= maxCap; c++ {
			gotPicked, gotProfit := table.Picked(c)
			wantPicked, wantProfit := Exact(items, c)
			if gotProfit != wantProfit || !slices.Equal(gotPicked, wantPicked) {
				t.Fatalf("trial %d capacity %d/%d: table picked %v (profit %v), Exact %v (profit %v)",
					trial, c, maxCap, gotPicked, gotProfit, wantPicked, wantProfit)
			}
			if TotalWeight(items, gotPicked) > c {
				t.Fatalf("trial %d capacity %d: packing overflows", trial, c)
			}
		}
		// The bitset reconstruction still finds the true optimum: compare
		// the top rung against exhaustive search.
		var best float64
		for mask := 0; mask < 1<<len(items); mask++ {
			var weight int64
			var profit float64
			for i, it := range items {
				if mask>>i&1 == 1 {
					weight += it.Weight
					profit += it.Profit
				}
			}
			if weight <= maxCap && profit > best {
				best = profit
			}
		}
		if _, profit := table.Picked(maxCap); profit != best {
			t.Fatalf("trial %d: DP profit %v, exhaustive optimum %v", trial, profit, best)
		}
	}
}

// A solved Table is read-only: concurrent Picked calls at different
// capacities (sessions sharing one cached table) agree with serial ones.
func TestTablePickedConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]Item, 40)
	for i := range items {
		items[i] = Item{Weight: int64(1 + rng.Intn(30)), Profit: float64(rng.Intn(100))}
	}
	const maxCap = 400
	table := Solve(items, maxCap)
	want := make([][]bool, maxCap+1)
	for c := range want {
		want[c], _ = Exact(items, int64(c))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c <= maxCap; c += 3 {
				if got, _ := table.Picked(int64(c)); !slices.Equal(got, want[c]) {
					t.Errorf("reader %d, capacity %d: picked set differs from Exact", g, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// referenceSolve is the full recurrence Solve ran before it skipped the
// cells at or above the prefix weight: every item updates every cell from
// its weight up to the capacity. It is the oracle the fast loop must
// reproduce bit for bit.
func referenceSolve(items []Item, maxCap int64) (dp []float64, keep []uint64) {
	cap := int(maxCap)
	stride := cap/64 + 1
	dp = make([]float64, cap+1)
	keep = make([]uint64, len(items)*stride)
	for i, it := range items {
		row := keep[i*stride : (i+1)*stride]
		w := int(it.Weight)
		for hi := cap; hi >= w; {
			lo := max(w, hi&^63)
			var bits uint64
			for c := hi; c >= lo; c-- {
				if cand := dp[c-w] + it.Profit; cand > dp[c] {
					dp[c] = cand
					bits |= 1 << (c & 63)
				}
			}
			row[hi>>6] = bits
			hi = lo - 1
		}
	}
	return dp, keep
}

// checkSolve fails unless Solve's table equals referenceSolve's: dp bit
// for bit, keep word for word.
func checkSolve(t *testing.T, items []Item, maxCap int64) {
	t.Helper()
	wantDP, wantKeep := referenceSolve(items, maxCap)
	got := Solve(items, maxCap)
	for c := range wantDP {
		if math.Float64bits(got.dp[c]) != math.Float64bits(wantDP[c]) {
			t.Fatalf("%d items, capacity %d: dp[%d] = %v, reference %v", len(items), maxCap, c, got.dp[c], wantDP[c])
		}
	}
	for k := range wantKeep {
		if got.keep[k] != wantKeep[k] {
			t.Fatalf("%d items, capacity %d: keep word %d (item %d) = %#x, reference %#x",
				len(items), maxCap, k, k/got.stride, got.keep[k], wantKeep[k])
		}
	}
}

// encodeItems and decodeItems map items to 9-byte fuzz records: a weight
// byte and a little-endian float64 profit.
func encodeItems(items []Item) []byte {
	var out []byte
	for _, it := range items {
		out = append(out, byte(it.Weight))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(it.Profit))
	}
	return out
}

func decodeItems(data []byte) []Item {
	const maxItems = 96
	var items []Item
	for len(data) >= 9 && len(items) < maxItems {
		items = append(items, Item{Weight: int64(data[0]), Profit: math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))})
		data = data[9:]
	}
	return items
}

// FuzzSolveMatchesReference: for any items and capacity, the prefix-weight
// Solve builds the table the full recurrence builds. Profits are raw
// float64 bits, so infinities, NaNs, negatives and absorbed sums are in
// range.
func FuzzSolveMatchesReference(f *testing.F) {
	mixed := []Item{{Weight: 3, Profit: 2}, {Weight: 5, Profit: 4}, {Weight: 7, Profit: 3}}
	for _, seed := range []struct {
		items []Item
		cap   uint16
	}{
		{[]Item{{Weight: 0, Profit: 5}, {Weight: 0, Profit: 0}, {Weight: 3, Profit: 2}, {Weight: 0, Profit: 1}}, 5},
		{[]Item{{Weight: 2, Profit: 0}, {Weight: 3, Profit: 0}, {Weight: 1, Profit: 4}}, 4},
		{[]Item{{Weight: 1, Profit: 1e9}, {Weight: 1, Profit: 1e-17}, {Weight: 2, Profit: 3}}, 4},
		{[]Item{{Weight: 9, Profit: 5}, {Weight: 2, Profit: 1}, {Weight: 255, Profit: 7}, {Weight: 1, Profit: 2}}, 4},
		{mixed, 10},  // below the total weight
		{mixed, 15},  // at it
		{mixed, 200}, // above it, across several keep words
		{nil, 70},
	} {
		f.Add(encodeItems(seed.items), seed.cap)
	}
	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		checkSolve(t, decodeItems(data), int64(capacity%4096))
	})
}

// TestSolveMatchesReferenceRandom runs the reference comparison on
// instances larger than the fuzz seeds: hundreds of items whose total
// weight falls below, near and above the capacity.
func TestSolveMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		items := make([]Item, 1+rng.Intn(300))
		var total int64
		for i := range items {
			items[i] = Item{Weight: int64(rng.Intn(40)), Profit: float64(rng.Intn(1000))}
			if trial%2 == 1 {
				items[i].Profit = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
			total += items[i].Weight
		}
		checkSolve(t, items, rng.Int63n(total*5/4+2))
	}
}
