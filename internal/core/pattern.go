package core

import (
	"cmp"
	"fmt"

	"mnemo/internal/knapsack"
	"mnemo/internal/ycsb"
)

type keyStatsKey struct{} // KeyStats's key in the workload's Derived memo

// KeyStats tallies the per-key access pattern of the trace, once per
// workload (ycsb.Workload.Derived): every caller gets the same slice,
// which is read-only — callers copy entries out. The counts come from
// ycsb.Workload.CountAccesses: after a measuring call whose LLC walk
// covered the whole trace they are that walk's, and the trace is not
// read again; without one (no LLC model, a sharded call, whose walks are
// per shard, or a cancelled walk) KeyStats reads the trace itself. The
// error is the trace's read error (a streamed trace that fails to
// decode); the tally then covers only the ops before it, and the next
// call walks the trace again.
func KeyStats(w *ycsb.Workload) ([]KeyStat, error) {
	stats, err := w.Derived(keyStatsKey{}, func() (any, error) {
		reads, writes, err := w.CountAccesses()
		out := make([]KeyStat, len(w.Dataset.Records))
		for i, rec := range w.Dataset.Records {
			out[i] = KeyStat{Index: i, Key: rec.Key, Size: rec.Size, Reads: reads[i], Writes: writes[i]}
		}
		return out, err
	})
	ks, _ := stats.([]KeyStat) // nil when a concurrent build panicked
	return ks, err
}

// TouchOrdering is the stand-alone Mnemo Pattern Engine (Fig 2a): keys
// are prioritized for FastMem in the order the workload first touches
// them. Untouched keys follow in index order. Like ycsb.AccessCounts it
// is best-effort on a trace that fails to read; the Touch policy
// reports that error.
func TouchOrdering(w *ycsb.Workload) Ordering {
	ord, _ := touchOrdering(w)
	return ord
}

func touchOrdering(w *ycsb.Workload) (Ordering, error) {
	stats, err := KeyStats(w)
	order, orderErr := w.TouchOrder()
	keys := make([]KeyStat, min(len(order), len(stats))) // either is nil when a concurrent build panicked
	for i := range keys {
		keys[i] = stats[order[i]]
	}
	return Ordering{Name: "touch", Keys: keys}, cmp.Or(err, orderErr)
}

// MnemoTOrdering is the MnemoT Pattern Engine (Fig 7): each key gets a
// placement weight of accesses ÷ key-value size, and keys are ordered by
// descending weight — the 0/1-knapsack density heuristic predominant
// across existing tiering solutions, computed here from just the workload
// description at key-value granularity (Table IV's zero-overhead tiering
// calculation). It is best-effort on a trace that fails to read; the
// MnemoT policy reports that error.
func MnemoTOrdering(w *ycsb.Workload) Ordering {
	ord, _ := mnemoTOrdering(w)
	return ord
}

func mnemoTOrdering(w *ycsb.Workload) (Ordering, error) {
	stats, err := KeyStats(w)
	items := make([]knapsack.Item, len(stats))
	for i, k := range stats {
		items[i] = knapsack.Item{Weight: int64(k.Size), Profit: float64(k.Accesses())}
	}
	order := knapsack.DensityOrder(items)
	keys := make([]KeyStat, len(order))
	for i, idx := range order {
		keys[i] = stats[idx]
	}
	return Ordering{Name: "mnemot", Keys: keys}, err
}

// ExternalOrdering wraps a key ordering produced by an existing generic
// tiering solution (deployment mode of Fig 2b): Mnemo then estimates the
// cost curve for incremental DRAM sizing "following the tiered key
// ordering". Keys absent from the external list are appended in dataset
// order; unknown keys are rejected.
func ExternalOrdering(w *ycsb.Workload, tieredKeys []string) (Ordering, error) {
	stats, err := KeyStats(w)
	if err != nil {
		return Ordering{}, fmt.Errorf("core: reading trace: %w", err)
	}
	byKey := make(map[string]int, len(stats))
	for i, k := range stats {
		byKey[k.Key] = i
	}
	seen := make([]bool, len(stats))
	keys := make([]KeyStat, 0, len(stats))
	for _, k := range tieredKeys {
		idx, ok := byKey[k]
		if !ok {
			return Ordering{}, fmt.Errorf("core: external ordering references unknown key %q", k)
		}
		if seen[idx] {
			return Ordering{}, fmt.Errorf("core: external ordering repeats key %q", k)
		}
		seen[idx] = true
		keys = append(keys, stats[idx])
	}
	for i := range stats {
		if !seen[i] {
			keys = append(keys, stats[i])
		}
	}
	return Ordering{Name: "external", Keys: keys}, nil
}
