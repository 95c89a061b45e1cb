package shard

import (
	"fmt"
	"sort"

	"mnemo/internal/ycsb"
)

// Sub is one shard's slice of a partitioned workload.
type Sub struct {
	// W is the shard-local sub-workload: its dataset holds only the
	// records the ring assigns to this shard (in global index order, so
	// relative record order is preserved) and its trace refers to them
	// by shard-local index. Unless ops were requested, an in-memory
	// parent's sub-trace exists only in packed form (W.Ops is nil) — a
	// third of the per-request footprint at 100M-request cluster scale.
	W *ycsb.Workload
	// GlobalIndex maps shard-local record indices back to the parent
	// dataset (GlobalIndex[local] = global), for placement remapping and
	// reporting.
	GlobalIndex []int32
	// Requests is the number of trace operations routed to this shard.
	Requests int
}

// Partition is a workload split across a consistent-hash ring: one Sub
// per shard, covering every parent record and trace op exactly once
// with per-shard op order preserved.
type Partition struct {
	Shards       int
	VirtualNodes int
	// Assign maps each global record index to its owning shard.
	Assign []int32
	Subs   []Sub
}

// Split partitions the workload over a fresh ring. withOps materializes
// per-shard Op slices, which nothing on the replay path reads any more;
// without it an in-memory parent trace is split in packed form only.
// Callers should prefer the memoized For.
func Split(w *ycsb.Workload, shards, vnodes int, withOps bool) (*Partition, error) {
	ring, err := NewRing(shards, vnodes)
	if err != nil {
		return nil, err
	}
	nrec := len(w.Dataset.Records)
	p := &Partition{
		Shards:       shards,
		VirtualNodes: vnodes,
		Assign:       make([]int32, nrec),
		Subs:         make([]Sub, shards),
	}

	// Pass 1: assign records to shards and build the local index map.
	local := make([]int32, nrec) // global index → shard-local index
	counts := make([]int, shards)
	for g := 0; g < nrec; g++ {
		s := ring.Owner(uint32(g))
		p.Assign[g] = int32(s)
		local[g] = int32(counts[s])
		counts[s]++
	}
	datasets := make([]ycsb.Dataset, shards)
	for s := range datasets {
		datasets[s].Records = make([]ycsb.Record, 0, counts[s])
		p.Subs[s].GlobalIndex = make([]int32, 0, counts[s])
	}
	for g, rec := range w.Dataset.Records {
		s := p.Assign[g]
		datasets[s].Records = append(datasets[s].Records, rec)
		datasets[s].TotalBytes += int64(rec.Size)
		p.Subs[s].GlobalIndex = append(p.Subs[s].GlobalIndex, int32(g))
	}

	// Pass 2: split the trace, preserving per-shard op order. A
	// stream-backed parent is spooled into per-shard .mtrc temp files
	// (O(frame) memory, stream.go); withOps is moot there. An in-memory
	// parent without the ops requirement is split in packed form only
	// (one uint32+uint8 per op instead of a 16-byte Op), Deletes and all:
	// replay decides kernel or per-op frame by frame.
	if w.Stream != nil {
		if err := splitStream(w, p, datasets, local); err != nil {
			return nil, err
		}
		return p, nil
	}
	if pt := w.Packed(); pt != nil && !withOps {
		perShard := make([]int, shards)
		for _, k := range pt.Keys {
			perShard[p.Assign[k]]++
		}
		keys := make([][]uint32, shards)
		kinds := make([][]uint8, shards)
		for s := range keys {
			keys[s] = make([]uint32, 0, perShard[s])
			kinds[s] = make([]uint8, 0, perShard[s])
		}
		for i, k := range pt.Keys {
			s := p.Assign[k]
			keys[s] = append(keys[s], uint32(local[k]))
			kinds[s] = append(kinds[s], pt.Kinds[i])
		}
		for s := range p.Subs {
			p.Subs[s].Requests = len(keys[s])
			p.Subs[s].W = ycsb.FromPacked(subSpec(w.Spec, s, counts[s], len(keys[s])), datasets[s], keys[s], kinds[s])
		}
		return p, nil
	}
	if w.Ops == nil && w.RequestCount() > 0 {
		return nil, fmt.Errorf("shard: parent trace is packed-only but per-op replay was requested")
	}

	perShard := make([]int, shards)
	for _, op := range w.Ops {
		perShard[p.Assign[op.Key]]++
	}
	ops := make([][]ycsb.Op, shards)
	for s := range ops {
		ops[s] = make([]ycsb.Op, 0, perShard[s])
	}
	for _, op := range w.Ops {
		s := p.Assign[op.Key]
		ops[s] = append(ops[s], ycsb.Op{Key: int(local[op.Key]), Kind: op.Kind})
	}
	for s := range p.Subs {
		p.Subs[s].Requests = len(ops[s])
		p.Subs[s].W = &ycsb.Workload{
			Spec:    subSpec(w.Spec, s, counts[s], len(ops[s])),
			Dataset: datasets[s],
			Ops:     ops[s],
		}
	}
	return p, nil
}

// subSpec derives a shard-local workload spec: same distribution
// metadata, shard-suffixed name, local dimensions.
func subSpec(spec ycsb.Spec, s, keys, requests int) ycsb.Spec {
	spec.Name = fmt.Sprintf("%s#s%d", spec.Name, s)
	spec.Keys = keys
	spec.Requests = requests
	return spec
}

// Requests sums the per-shard trace lengths (== the parent trace
// length; partitioning drops nothing).
func (p *Partition) Requests() int {
	total := 0
	for i := range p.Subs {
		total += p.Subs[i].Requests
	}
	return total
}

// HotShardSpread reports, for the hottest `hot` keys of the parent
// trace (by access count, ties to the lower index), how many distinct
// shards serve them — the guard observable against a skewed hot set
// collapsing onto one shard, and against "every shard equally hot"
// being assumed rather than measured.
func (p *Partition) HotShardSpread(reads, writes []int, hot int) int {
	type keyCount struct{ key, count int }
	ranked := make([]keyCount, len(reads))
	for i := range reads {
		ranked[i] = keyCount{key: i, count: reads[i] + writes[i]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].key < ranked[j].key
	})
	if hot > len(ranked) {
		hot = len(ranked)
	}
	seen := make(map[int32]bool, p.Shards)
	for _, r := range ranked[:hot] {
		seen[p.Assign[r.key]] = true
	}
	return len(seen)
}

// forKey keys a partition in its workload's Derived memo.
type forKey struct {
	shards, vnodes int
	withOps        bool
}

// For returns w's partition at the given cluster shape, split at most
// once per (shards, vnodes, withOps) for the workload's lifetime
// (ycsb.Workload.Derived): every repetition and validation point shares
// one split, and a failed split is retried by the next call. vnodes ≤ 0
// uses DefaultVirtualNodes, so explicit 64 and default share an entry.
func For(w *ycsb.Workload, shards, vnodes int, withOps bool) (*Partition, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	p, err := w.Derived(forKey{shards, vnodes, withOps}, func() (any, error) {
		return Split(w, shards, vnodes, withOps)
	})
	if err != nil {
		return nil, err
	}
	return p.(*Partition), nil
}
