package shard

// In-package test of splitStream: partitioning a stream-backed (.mtrc)
// parent must spool per-shard sub-streams that cover the parent trace
// exactly, in per-shard order, remapped to shard-local indices, and
// each sub-stream must be independently re-iterable (the contract every
// repetition of a cluster run relies on). End-to-end streamed-sharded
// replay equivalence lives in internal/client/stream_test.go.

import (
	"path/filepath"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func TestSplitStreamCoversParent(t *testing.T) {
	parent := ycsb.MustGenerate(ycsb.Spec{
		Name: "sst", Keys: 600, Requests: 12_000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian, Theta: 0.99},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 17,
	})
	// Sprinkle Deletes so sub-traces carry structural frames too.
	for i := 40; i < len(parent.Ops); i += 131 {
		parent.Ops[i].Kind = kvstore.Delete
	}
	path := filepath.Join(t.TempDir(), "parent.mtrc")
	if err := trace.WriteWorkload(parent, path); err != nil {
		t.Fatal(err)
	}
	w, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stream == nil {
		t.Fatal("opened trace is not stream-backed")
	}

	const shards = 3
	p, err := Split(w, shards, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Requests() != len(parent.Ops) {
		t.Fatalf("partition carries %d requests, parent has %d", p.Requests(), len(parent.Ops))
	}

	// Expected per-shard subsequences from the parent trace.
	local := make([]int32, len(parent.Dataset.Records))
	counts := make([]int, shards)
	for g := range local {
		s := p.Assign[g]
		local[g] = int32(counts[s])
		counts[s]++
	}
	wantKeys := make([][]int, shards)
	wantKinds := make([][]kvstore.OpKind, shards)
	for _, op := range parent.Ops {
		s := p.Assign[op.Key]
		wantKeys[s] = append(wantKeys[s], int(local[op.Key]))
		wantKinds[s] = append(wantKinds[s], op.Kind)
	}

	for s, sub := range p.Subs {
		if sub.W.Stream == nil {
			t.Fatalf("shard %d sub-workload is not stream-backed", s)
		}
		if sub.Requests != len(wantKeys[s]) {
			t.Fatalf("shard %d carries %d requests, want %d", s, sub.Requests, len(wantKeys[s]))
		}
		// Two passes: the sub-stream must be re-iterable from the start.
		for pass := 0; pass < 2; pass++ {
			i := 0
			err := sub.W.ForEachOp(func(key int, kind kvstore.OpKind) {
				if i < len(wantKeys[s]) && (key != wantKeys[s][i] || kind != wantKinds[s][i]) {
					t.Fatalf("shard %d pass %d op %d = (%d,%v), want (%d,%v)",
						s, pass, i, key, kind, wantKeys[s][i], wantKinds[s][i])
				}
				i++
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(wantKeys[s]) {
				t.Fatalf("shard %d pass %d yielded %d ops, want %d", s, pass, i, len(wantKeys[s]))
			}
		}
	}
}
