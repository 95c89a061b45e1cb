// Package knapsack implements the tiering formulation used by MnemoT's
// Pattern Engine and by the existing tiering solutions the paper adopts
// its methodology from (X-Mem, Unimem, Tahoe): key-value pairs are items
// whose weight is their size and whose profit is their access count, and
// FastMem is a knapsack of fixed capacity.
//
// The predominant practical method — and what MnemoT uses — is the greedy
// profit-density ordering (accesses / size). The exact 0/1 dynamic
// program is also provided for the ablation benchmark that quantifies how
// little the greedy heuristic gives up at key-value granularity.
package knapsack

import (
	"cmp"
	"fmt"
	"slices"
)

// Item is one key-value pair.
type Item struct {
	// Weight is the item's size in capacity units (bytes, or a coarser
	// unit for the exact DP).
	Weight int64
	// Profit is the benefit of placing the item in FastMem (access count,
	// or weighted access count).
	Profit float64
}

// DensityOrder returns item indices sorted by descending profit density
// (profit/weight) — hot keys first, with small keys advantaged so "more
// key-value pairs can be satisfied by FastMem until capacity is full"
// (§IV). Zero-weight items sort first (they cost nothing to place); ties
// break by index for determinism.
func DensityOrder(items []Item) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	density := func(it Item) float64 {
		if it.Weight <= 0 {
			return float64(1<<62) + it.Profit // effectively infinite
		}
		return it.Profit / float64(it.Weight)
	}
	slices.SortFunc(order, func(a, b int) int {
		if da, db := density(items[a]), density(items[b]); da != db {
			return cmp.Compare(db, da)
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Greedy packs items in density order until capacity is exhausted,
// returning the picked set and total profit. Items that do not fit are
// skipped (classic greedy 0/1 behaviour), so a small later item may still
// be packed.
func Greedy(items []Item, capacity int64) (picked []bool, profit float64) {
	if capacity < 0 {
		panic(fmt.Sprintf("knapsack: negative capacity %d", capacity))
	}
	picked = make([]bool, len(items))
	remaining := capacity
	for _, idx := range DensityOrder(items) {
		it := items[idx]
		if it.Weight > remaining {
			continue
		}
		picked[idx] = true
		remaining -= it.Weight
		profit += it.Profit
	}
	return picked, profit
}

// Exact solves the 0/1 knapsack exactly by dynamic programming over
// capacity. Memory and time are O(n·capacity), so callers must keep
// capacity in coarse units (the ablation uses 4 KB pages). It panics on
// negative weights or capacity; use Greedy for byte-granularity problems.
func Exact(items []Item, capacity int64) (picked []bool, profit float64) {
	return Solve(items, capacity).Picked(capacity)
}

// Table is a solved 0/1 knapsack DP. The array solved at capacity C also
// holds the optimum of every capacity ≤ C — a smaller problem's cells
// never read a larger one's — so one Table answers Picked for a whole
// ladder of capacities.
type Table struct {
	items []Item
	dp    []float64 // dp[c] = best profit within weight c
	// keep is the decision bitset for reconstruction: bit c of row i is
	// set when item i improved dp[c]. Rows are stride words long.
	keep   []uint64
	stride int
}

// Solve runs the dynamic program over capacities 0 … maxCap. It panics
// on negative weights or capacity, or when the table would exceed 200 M
// cells.
//
// Cells at or above the prefix weight W of the items so far all hold the
// same value P, the profit of packing every one of them: the recurrence
// at such a cell reads dp[c] = dp[c−w] = P, so it evaluates the same
// fl(P+p) > P for all of them, and one evaluation decides their values
// and their keep bits. The loop therefore runs the recurrence only below
// W, fills the keep bits at and above it a word at a time, and writes P
// into dp only as W grows past a cell. The table is bit-identical to the
// full recurrence over every cell.
func Solve(items []Item, maxCap int64) *Table {
	if maxCap < 0 {
		panic(fmt.Sprintf("knapsack: negative capacity %d", maxCap))
	}
	const maxCells = 200_000_000
	if int64(len(items)+1)*(maxCap+1) > maxCells {
		panic(fmt.Sprintf("knapsack: DP of %d items × %d capacity too large; coarsen units",
			len(items), maxCap))
	}
	cap := int(maxCap)
	t := &Table{items: items, dp: make([]float64, cap+1), stride: cap/64 + 1}
	t.keep = make([]uint64, len(items)*t.stride)
	dp := t.dp
	// dp[:W] holds the table; every cell from W to cap holds P. W
	// saturates at cap+1.
	W, P := 0, 0.0
	for i, it := range items {
		if it.Weight < 0 {
			panic(fmt.Sprintf("knapsack: negative weight %d", it.Weight))
		}
		row := t.keep[i*t.stride : (i+1)*t.stride]
		next := cap + 1
		if it.Weight < int64(next-W) {
			next = W + int(it.Weight)
		}
		for c := W; c < next; c++ {
			dp[c] = P
		}
		w := int(it.Weight)
		// Below next the recurrence reads only dp[:W]. One keep word at a
		// time, its bits gathered in a register; dst[j] is dp[lo+j] and
		// src[j] is dp[lo+j−w], sliced so the loop carries no bounds checks.
		for hi := next - 1; hi >= w; {
			lo := max(w, hi&^63)
			var bits uint64
			dst := dp[lo : hi+1]
			src := dp[lo-w : hi-w+1][:len(dst)]
			for j := len(dst) - 1; j >= 0; j-- {
				if cand := src[j] + it.Profit; cand > dst[j] {
					dst[j] = cand
					bits |= 1 << ((lo + j) & 63)
				}
			}
			row[hi>>6] = bits
			hi = lo - 1
		}
		// At and above next every cell takes the item or none does.
		if cand := P + it.Profit; cand > P {
			P = cand
			if next <= cap {
				row[next>>6] |= ^uint64(0) << (next & 63)
				for j := next>>6 + 1; j < len(row); j++ {
					row[j] = ^uint64(0)
				}
				row[len(row)-1] &= ^uint64(0) >> (63 - cap&63)
			}
		}
		W = next
	}
	for c := W; c <= cap; c++ {
		dp[c] = P
	}
	return t
}

// Capacity is the largest capacity the table was solved at: Picked
// answers every capacity from 0 up to it.
func (t *Table) Capacity() int64 { return int64(len(t.dp)) - 1 }

// Picked reconstructs the optimal packing at capacity ≤ the solved
// maximum, exactly as a Solve at that capacity alone would have.
func (t *Table) Picked(capacity int64) (picked []bool, profit float64) {
	if capacity < 0 || capacity >= int64(len(t.dp)) {
		panic(fmt.Sprintf("knapsack: capacity %d outside the solved range [0, %d]", capacity, len(t.dp)-1))
	}
	picked = make([]bool, len(t.items))
	c := int(capacity)
	for i := len(t.items) - 1; i >= 0; i-- {
		if t.keep[i*t.stride+c>>6]&(1<<(c&63)) != 0 {
			picked[i] = true
			c -= int(t.items[i].Weight)
		}
	}
	return picked, t.dp[capacity]
}

// TotalWeight sums the weights of picked items.
func TotalWeight(items []Item, picked []bool) int64 {
	var w int64
	for i, p := range picked {
		if p {
			w += items[i].Weight
		}
	}
	return w
}
