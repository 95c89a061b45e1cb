package shard

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

func TestNewRingValidates(t *testing.T) {
	for _, shards := range []int{0, -1, MaxShards + 1} {
		if _, err := NewRing(shards, 8); err == nil {
			t.Errorf("NewRing(%d) accepted invalid shard count", shards)
		}
	}
	if _, err := NewRing(1, 0); err != nil {
		t.Fatalf("NewRing(1, 0): %v", err)
	}
	if _, err := NewRing(MaxShards, DefaultVirtualNodes); err != nil {
		t.Fatalf("NewRing(MaxShards): %v", err)
	}
}

func TestRingDeterministicAndSingleShard(t *testing.T) {
	a, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(8, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint32(0); key < 50_000; key++ {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring not a pure function of shape: key %d owned by %d vs %d", key, a.Owner(key), b.Owner(key))
		}
	}
	one, err := NewRing(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint32(0); key < 1000; key++ {
		if got := one.Owner(key); got != 0 {
			t.Fatalf("1-shard ring routed key %d to shard %d", key, got)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, keys = 8, 200_000
	r, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for key := uint32(0); key < keys; key++ {
		counts[r.Owner(key)]++
	}
	mean := float64(keys) / shards
	for s, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.5 || ratio > 1.5 {
			t.Errorf("shard %d owns %d keys (%.2fx mean) — ring badly unbalanced: %v", s, c, ratio, counts)
		}
	}
}

func testWorkload(t *testing.T, keys, requests int) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name:      "shard-test",
		Keys:      keys,
		Requests:  requests,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.9,
		Sizes:     ycsb.SizeFixed1KB,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSplitCoversEverything(t *testing.T) {
	w := testWorkload(t, 5000, 40_000)
	p, err := Split(w, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Requests() != len(w.Ops) {
		t.Fatalf("partition carries %d requests, parent has %d", p.Requests(), len(w.Ops))
	}
	nrec := 0
	var bytes int64
	seen := make([]bool, len(w.Dataset.Records))
	for s, sub := range p.Subs {
		nrec += len(sub.W.Dataset.Records)
		bytes += sub.W.Dataset.TotalBytes
		prev := int32(-1)
		for local, g := range sub.GlobalIndex {
			if g <= prev {
				t.Fatalf("shard %d GlobalIndex not ascending at local %d", s, local)
			}
			prev = g
			if seen[g] {
				t.Fatalf("record %d assigned to more than one shard", g)
			}
			seen[g] = true
			if p.Assign[g] != int32(s) {
				t.Fatalf("Assign[%d]=%d but record lives in shard %d", g, p.Assign[g], s)
			}
			if sub.W.Dataset.Records[local] != w.Dataset.Records[g] {
				t.Fatalf("shard %d local record %d differs from global %d", s, local, g)
			}
		}
	}
	if nrec != len(w.Dataset.Records) || bytes != w.Dataset.TotalBytes {
		t.Fatalf("shards hold %d records / %d bytes; parent has %d / %d",
			nrec, bytes, len(w.Dataset.Records), w.Dataset.TotalBytes)
	}
}

// TestSplitPreservesOrder checks each shard's sub-trace is exactly the
// parent-trace subsequence owned by that shard, in order, and that the
// packed-only split agrees op-for-op with the materialized one.
func TestSplitPreservesOrder(t *testing.T) {
	w := testWorkload(t, 3000, 25_000)
	packed, err := Split(w, 4, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	withOps, err := Split(w, 4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cursor := make([]int, 4)
	for _, op := range w.Ops {
		s := packed.Assign[op.Key]
		sub := packed.Subs[s]
		pt := sub.W.Packed()
		if sub.W.Ops != nil {
			t.Fatalf("packed split materialized Ops on shard %d", s)
		}
		i := cursor[s]
		if g := sub.GlobalIndex[pt.Keys[i]]; int(g) != op.Key || kvstore.OpKind(pt.Kinds[i]) != op.Kind {
			t.Fatalf("shard %d packed op %d = (key %d, kind %d); want (%d, %d)",
				s, i, g, pt.Kinds[i], op.Key, op.Kind)
		}
		osub := withOps.Subs[s]
		if g := osub.GlobalIndex[osub.W.Ops[i].Key]; int(g) != op.Key || osub.W.Ops[i].Kind != op.Kind {
			t.Fatalf("shard %d materialized op %d mismatch", s, i)
		}
		cursor[s]++
	}
	for s, sub := range packed.Subs {
		if cursor[s] != sub.Requests {
			t.Fatalf("shard %d: walked %d ops, Requests=%d", s, cursor[s], sub.Requests)
		}
		if sub.W.RequestCount() != sub.Requests {
			t.Fatalf("shard %d: RequestCount %d != Requests %d", s, sub.W.RequestCount(), sub.Requests)
		}
	}
}

func TestSplitPackedOnlyParentRejectsOps(t *testing.T) {
	parent := testWorkload(t, 500, 2000)
	p, err := Split(parent, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// A sub-workload is packed-only; asking it for a materialized split
	// must fail rather than silently produce an empty trace.
	if _, err := Split(p.Subs[0].W, 2, 0, true); err == nil {
		t.Fatal("Split(withOps) on a packed-only workload succeeded")
	}
}

func TestHotShardSpread(t *testing.T) {
	w := testWorkload(t, 10_000, 100_000)
	p, err := Split(w, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := w.AccessCounts()
	// The zipfian hot set must span shards: if the hottest 64 keys
	// collapse onto one or two shards, sharding gains are illusory.
	if spread := p.HotShardSpread(reads, writes, 64); spread < 4 {
		t.Fatalf("hottest 64 keys span only %d of 8 shards", spread)
	}
	if spread := p.HotShardSpread(reads, writes, len(reads)+10); spread != 8 {
		t.Fatalf("full-key spread = %d, want 8", spread)
	}
}

func TestForCaches(t *testing.T) {
	w := testWorkload(t, 1000, 5000)
	a, err := For(w, 4, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := For(w, 4, DefaultVirtualNodes, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("For did not cache: same shape returned distinct partitions")
	}
	c, err := For(w, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("For returned the 4-shard partition for a 2-shard request")
	}
}

// collectedWithin reports whether done closes within a few GC cycles:
// a finalizer signalling it has run.
func collectedWithin(done <-chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// A partition lives exactly as long as its workload: once the caller
// drops both, nothing in the package keeps the partition reachable.
func TestForPartitionDiesWithWorkload(t *testing.T) {
	done := make(chan struct{})
	func() {
		w := testWorkload(t, 1000, 5000)
		p, err := For(w, 4, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(p, func(*Partition) { close(done) })
	}()
	if !collectedWithin(done) {
		t.Fatal("partition outlived its dropped workload")
	}
}

// countingStream backs a workload with an in-memory trace's frames,
// counting Frames calls and failing the first fail of them.
type countingStream struct {
	src   *ycsb.Workload
	fail  int32
	calls atomic.Int32
}

func (s *countingStream) Requests() int { return s.src.RequestCount() }

func (s *countingStream) Frames() (ycsb.FrameIter, error) {
	if s.calls.Add(1) <= s.fail {
		return nil, errors.New("transient frame source failure")
	}
	f, err := s.src.Frames()
	return &f, err
}

// streamed wraps src's dataset and trace as a stream-backed workload.
func streamed(src *ycsb.Workload, fail int32) (*ycsb.Workload, *countingStream) {
	cs := &countingStream{src: src, fail: fail}
	return &ycsb.Workload{Spec: src.Spec, Dataset: src.Dataset, Stream: cs}, cs
}

// Concurrent callers of one shape share one split (a stream split opens
// the parent twice) and get one partition.
func TestForConcurrentOneBuild(t *testing.T) {
	w, cs := streamed(testWorkload(t, 1000, 5000), 0)
	const callers = 8
	parts := make([]*Partition, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = For(w, 4, 0, false)
		}()
	}
	wg.Wait()
	for i := range parts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if parts[i] != parts[0] {
			t.Fatalf("caller %d got a distinct partition", i)
		}
	}
	if n := cs.calls.Load(); n != 2 {
		t.Fatalf("parent stream opened %d times, want 2 (one split)", n)
	}
}

// A failed split is not memoized: the next call splits again, and its
// success is then kept.
func TestForRetriesFailedSplit(t *testing.T) {
	w, cs := streamed(testWorkload(t, 1000, 5000), 1)
	if _, err := For(w, 4, 0, false); err == nil {
		t.Fatal("split over a failing stream succeeded")
	}
	p, err := For(w, 4, 0, false)
	if err != nil {
		t.Fatalf("retry after a failed split: %v", err)
	}
	if p.Requests() != 5000 {
		t.Fatalf("retried partition carries %d requests, want 5000", p.Requests())
	}
	again, err := For(w, 4, 0, false)
	if err != nil || again != p {
		t.Fatalf("successful split not memoized: %v", err)
	}
	if n := cs.calls.Load(); n != 3 {
		t.Fatalf("parent stream opened %d times, want 3 (one failed open, one split)", n)
	}
}
