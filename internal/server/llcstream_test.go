package server

import (
	"context"
	"io"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/ycsb"
)

// replayByHand drives every frame of w through d the way the client's
// replay loop does and returns the kernel-served requests split by
// whether an LLC stream or the live cache priced them.
func replayByHand(t *testing.T, d *Deployment, w *ycsb.Workload) (stream, live, perOp int) {
	t.Helper()
	frames, err := w.Frames()
	if err != nil {
		t.Fatal(err)
	}
	for {
		keys, kinds, rw, err := frames.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AwaitFrame(context.Background(), keys, rw); err != nil {
			t.Fatal(err)
		}
		tab := d.FrameTable(keys, rw)
		switch {
		case tab == nil:
			for i, k := range keys {
				d.DoIndex(int(k), kvstore.OpKind(kinds[i]))
			}
			perOp += len(keys)
		case d.llcs != nil:
			stream += tab.Serve(keys, kinds, 0, tab.Block())
		default:
			live += tab.Serve(keys, kinds, 0, tab.Block())
		}
	}
}

// TestLLCStreamCountersAccount: the stream-requests counter counts
// exactly the kernel requests a stream priced, so it and the kernel
// requests the live cache priced add up to every kernel request. The
// trace's frame 2 carries a Delete (re-inserted at once): frames 0–1
// come from the stream, frame 2 hands over and goes per-op, frames 3–5
// take the kernel on the rebuilt live cache. The LLC hit/miss totals
// equal those of the same replay without a stream.
func TestLLCStreamCountersAccount(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "counters", Keys: 2000, Requests: 6 * ReplayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeThumbnail, Seed: 3,
	})
	del := &w.Ops[2*ReplayBlockOps+10]
	del.Kind = kvstore.Delete
	w.Ops[2*ReplayBlockOps+11] = ycsb.Op{Key: del.Key, Kind: kvstore.Write}

	load := func(sink *obs.Sink) *Deployment {
		cfg := DefaultConfig(RedisLike, 5)
		cfg.Machine.LLCBytes = 4 << 20
		cfg.Obs = sink
		d := NewDeployment(cfg)
		if err := d.Load(w.Dataset, AllSlow()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := load(nil)
	_, refKernel, _ := replayByHand(t, ref, w)

	sink := obs.NewSink()
	d := load(sink)
	sh := NewLLCShare(context.Background())
	defer sh.Close()
	if !d.AttachLLCStream(sh, w) {
		t.Fatal("stream not attached to a cold, batch-capable deployment")
	}
	stream, live, perOp := replayByHand(t, d, w)
	d.FlushObs()
	if stream != 2*ReplayBlockOps || live != 3*ReplayBlockOps || perOp != ReplayBlockOps {
		t.Fatalf("requests: %d from the stream, %d kernel on the live cache, %d per-op; want 2, 3 and 1 frames", stream, live, perOp)
	}
	if n := sink.Counter("mnemo_server_llc_stream_requests_total").Value(); n != int64(stream) || n+int64(live) != int64(refKernel) {
		t.Fatalf("stream-requests counter %d + %d live-cache kernel requests, want %d kernel requests in all", n, live, refKernel)
	}
	if n := sink.Counter("mnemo_server_llc_handovers_total").Value(); n != 1 {
		t.Fatalf("hand-overs counter %d, want 1", n)
	}
	got, want := d.Machine().LLC(), ref.Machine().LLC()
	if got.Hits() != want.Hits() || got.Misses() != want.Misses() || got.Hits() == 0 || got.Misses() == 0 {
		t.Fatalf("LLC %d hits / %d misses with the stream, %d / %d without", got.Hits(), got.Misses(), want.Hits(), want.Misses())
	}
	if d.Clock() != ref.Clock() {
		t.Fatalf("clock %v with the stream, %v without", d.Clock(), ref.Clock())
	}
}

// TestLLCStreamAttachRules: a stream is attached only where it can
// stand in for the live cache from request 0.
func TestLLCStreamAttachRules(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeThumbnail, 0.9)
	sh := NewLLCShare(context.Background())
	defer sh.Close()
	for name, tc := range map[string]struct {
		mut  func(*Config)
		warm bool
		want bool
	}{
		"cold":          {want: true},
		"warm cache":    {warm: true},
		"per-op config": {mut: func(c *Config) { c.DisableBatchReplay = true }},
		"no LLC model":  {mut: func(c *Config) { c.Machine.LLCBytes = 0 }},
	} {
		cfg := DefaultConfig(RedisLike, 1)
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		d := NewDeployment(cfg)
		if err := d.Load(w.Dataset, AllFast()); err != nil {
			t.Fatal(err)
		}
		if tc.warm {
			d.DoIndex(0, kvstore.Read)
		}
		if got := d.AttachLLCStream(sh, w); got != tc.want {
			t.Errorf("%s: attached %t, want %t", name, got, tc.want)
		}
	}
	// A closed share starts no stream.
	closed := NewLLCShare(context.Background())
	closed.Close()
	d := NewDeployment(DefaultConfig(RedisLike, 1))
	if err := d.Load(w.Dataset, AllFast()); err != nil {
		t.Fatal(err)
	}
	if d.AttachLLCStream(closed, w) {
		t.Error("a closed share attached a stream")
	}
}
