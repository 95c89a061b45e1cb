package server

import (
	"context"
	"io"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/ycsb"
)

// replayByHand drives every frame of w through d the way the client's
// replay loop does and returns the requests it served, split by whether
// an LLC stream or the private walker priced them.
func replayByHand(t *testing.T, d *Deployment, w *ycsb.Workload) (stream, private int) {
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
		if err := d.AwaitFrame(context.Background(), len(keys)); err != nil {
			t.Fatal(err)
		}
		for from := 0; from < len(keys); {
			tab, end := d.FrameTable(keys, kinds, rw, from)
			if tab != nil {
				tab.Serve(keys[from:end], kinds[from:end], 0, tab.Block())
			} else {
				for i := from; i < end; i++ {
					d.DoIndex(int(keys[i]), kvstore.OpKind(kinds[i]))
				}
			}
			if d.llcs != nil {
				stream += end - from
			} else {
				private += end - from
			}
			from = end
		}
	}
}

// deleteTrace is a 6-frame trace whose frame 2 deletes a record, reads
// it twice while it is dead and then re-inserts it.
func deleteTrace() *ycsb.Workload {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "counters", Keys: 2000, Requests: 6 * ReplayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeThumbnail, Seed: 3,
	})
	at := 2*ReplayBlockOps + 10
	k := w.Ops[at].Key
	w.Ops[at].Kind = kvstore.Delete
	w.Ops[at+1] = ycsb.Op{Key: k, Kind: kvstore.Read}
	w.Ops[at+2] = ycsb.Op{Key: k, Kind: kvstore.Read}
	w.Ops[at+3] = ycsb.Op{Key: k, Kind: kvstore.Write}
	return w
}

// TestLLCStreamCountersAccount: every request of a run under a share is
// priced from its stream, on the kernel and the per-op path alike, and
// every request of a run without one by the private walker, so the
// stream-requests counter plus the privately walked requests add up to
// the ops counter. The trace's frame 2 is mixed (its Delete, two reads
// of the dead record and its re-insert go per-op, the runs around them
// take the kernel); frames 0–1 and 3–5 take the kernel. Both runs reach
// the same clock and LLC tallies.
func TestLLCStreamCountersAccount(t *testing.T) {
	w := deleteTrace()
	sink := obs.NewSink()
	load := func() *Deployment {
		cfg := DefaultConfig(RedisLike, 5)
		cfg.Machine.LLCBytes = 4 << 20
		cfg.Obs = sink
		d := NewDeployment(cfg)
		if err := d.Load(w.Dataset, AllSlow()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	shared, plain := load(), load()
	sh := NewLLCShare(context.Background())
	defer sh.Close()
	if !shared.AttachLLCStream(sh, w) {
		t.Fatal("stream not attached to a freshly loaded deployment")
	}
	stream, private := replayByHand(t, shared, w)
	if stream != len(w.Ops) || private != 0 {
		t.Fatalf("shared run: %d requests from the stream, %d privately walked; want all %d from the stream", stream, private, len(w.Ops))
	}
	if f := shared.frames; f != [numFramePaths]int64{pathKernel: 5, pathMixed: 1} {
		t.Fatalf("frames by path %v, want frame 2 mixed and the other five on the kernel", f)
	}
	s2, p2 := replayByHand(t, plain, w)
	stream, private = stream+s2, private+p2
	shared.FlushObs()
	plain.FlushObs()

	streamed := sink.Counter("mnemo_server_llc_stream_requests_total").Value()
	ops := sink.Counter(obs.Name("mnemo_server_ops_total", "engine", "redislike")).Value()
	if streamed != int64(stream) || streamed+int64(private) != ops || ops != int64(2*len(w.Ops)) {
		t.Fatalf("stream-requests counter %d + %d privately walked, ops counter %d; want %d stream-priced and %d in all", streamed, private, ops, stream, 2*len(w.Ops))
	}
	if shared.llcHits != plain.llcHits || shared.llcMisses != plain.llcMisses || shared.llcHits == 0 || shared.llcMisses == 0 {
		t.Fatalf("LLC %d hits / %d misses from the stream, %d / %d from the private walker", shared.llcHits, shared.llcMisses, plain.llcHits, plain.llcMisses)
	}
	if shared.Clock() != plain.Clock() {
		t.Fatalf("clock %v from the stream, %v from the private walker", shared.Clock(), plain.Clock())
	}
}

// TestLLCStreamAttachRules: a stream is attached only where its bits
// stand for the run from request 0 — to a deployment with an LLC model
// that has priced nothing since Load or ResetRun, per-op config or not.
func TestLLCStreamAttachRules(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeThumbnail, 0.9)
	sh := NewLLCShare(context.Background())
	defer sh.Close()
	for name, tc := range map[string]struct {
		mut    func(*Config)
		priced bool
		rewind bool
		want   bool
	}{
		"fresh":         {want: true},
		"priced":        {priced: true},
		"rewound":       {priced: true, rewind: true, want: true},
		"per-op config": {mut: func(c *Config) { c.DisableBatchReplay = true }, want: true},
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
		if tc.priced {
			d.DoIndex(0, kvstore.Read)
		}
		if tc.rewind && !d.ResetRun(2) {
			t.Fatalf("%s: deployment not rewindable", name)
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

// traceRecorder passes every request to its engine and keeps the
// OpTrace of the last one.
type traceRecorder struct {
	kvstore.Store
	last *kvstore.OpTrace
}

func (r traceRecorder) GetID(key string, id uint64) (kvstore.Value, kvstore.OpTrace) {
	v, tr := r.Store.GetID(key, id)
	*r.last = tr
	return v, tr
}

func (r traceRecorder) PutID(key string, id uint64, v kvstore.Value) kvstore.OpTrace {
	tr := r.Store.PutID(key, id, v)
	*r.last = tr
	return tr
}

func (r traceRecorder) DelID(key string, id uint64) kvstore.OpTrace {
	tr := r.Store.DelID(key, id)
	*r.last = tr
	return tr
}

// TestLLCWalkerMatchesReference checks the walker's rules against an
// independent reference: the engines' real operation traces. A per-op
// deployment serves the trace through DoIndex; a separate LRUCache is
// walked with Access at the bytes valueBytes gives for each request's
// OpTrace, and with Remove after each Delete. The private walker's hit
// (Result.Hit) and the shared stream's bit must equal the reference's,
// request by request, on every engine. The trace deletes 4% of its
// requests and reads records while they are dead; its second variant
// holds records over 1 MB, which slabkv refuses at Load and at every
// Write, so MemcachedLike's refused records read as "not found".
func TestLLCWalkerMatchesReference(t *testing.T) {
	for _, big := range []bool{false, true} {
		w := ycsb.MustGenerate(ycsb.Spec{
			Name: "reference", Keys: 500, Requests: 20_000,
			Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
			ReadRatio: 0.85, Sizes: ycsb.SizeThumbnail, Seed: 29,
		})
		for i := 7; i < len(w.Ops); i += 25 {
			w.Ops[i].Kind = kvstore.Delete
		}
		if big {
			for i := 0; i < len(w.Dataset.Records); i += 25 {
				w.Dataset.Records[i].Size = 3 << 19
			}
		}
		sh := NewLLCShare(context.Background())
		for _, e := range Engines() {
			cfg := DefaultConfig(e, 1)
			cfg.DisableBatchReplay = true
			cfg.Machine.LLCBytes = 4 << 20
			d := loadHalfFast(t, cfg, w)
			var tr kvstore.OpTrace
			for i, inst := range d.instances {
				d.instances[i] = traceRecorder{Store: inst, last: &tr}
			}
			s, _ := sh.stream(llcShareKey{w: w, engine: e, capacity: cfg.Machine.LLCBytes}, true)
			if err := s.await(context.Background(), len(w.Ops)); err != nil {
				t.Fatal(err)
			}
			ref := memsim.NewLRUCache(cfg.Machine.LLCBytes)
			var deadReads, refusedHits, hits int
			for j, op := range w.Ops {
				res := d.DoIndex(op.Key, op.Kind)
				rec := ref.Access(memsim.RecordRef{ID: uint64(op.Key), Bytes: d.valueBytes(tr, w.Dataset.Records[op.Key].Size)})
				if op.Kind == kvstore.Delete {
					ref.Remove(uint64(op.Key))
				}
				if res.Hit != rec || (s.bit(j) == 1) != rec {
					t.Fatalf("big=%t %v request %d (%v of record %d): walker %t, stream %d, reference %t",
						big, e, j, op.Kind, op.Key, res.Hit, s.bit(j), rec)
				}
				switch {
				case op.Kind != kvstore.Read || tr.Found:
				case !e.stores(&w.Dataset.Records[op.Key]):
					if rec {
						refusedHits++
					}
				default:
					deadReads++
				}
				if rec {
					hits++
				}
			}
			if deadReads == 0 || hits == 0 || hits == len(w.Ops) {
				t.Fatalf("big=%t %v: %d reads of deleted records, %d hits of %d: the trace does not exercise the rules", big, e, deadReads, hits, len(w.Ops))
			}
			if big && e == MemcachedLike && refusedHits == 0 {
				t.Fatalf("big=%t %v: no read of a refused record hit: the refused-record rule is not exercised", big, e)
			}
		}
		sh.Close()
	}
}

// TestLLCLivenessIsTheTrace pins the LLC's view of a deleted record that
// a migration re-creates in the store: to the walker it stays deleted
// until the trace writes it. With a 512-byte cache and 1 KB records, a
// live read never fits and never hits, while a "not found" read touches
// 0 bytes and hits on repeat.
func TestLLCLivenessIsTheTrace(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	cfg := DefaultConfig(RedisLike, 5)
	cfg.Machine.LLCBytes = 512
	d := loadHalfFast(t, cfg, w)
	d.DoIndex(3, kvstore.Delete)
	to := memsim.Slow
	if d.RecordTiers()[3] == memsim.Slow {
		to = memsim.Fast
	}
	if res := d.ApplyMoves([]Move{{Index: 3, To: to}}); res.Moves != 1 {
		t.Fatalf("migration of the deleted record dropped: %+v", res)
	}
	for i, want := range []bool{false, true} {
		if res := d.DoIndex(3, kvstore.Read); !res.Found || res.Hit != want {
			t.Fatalf("read %d of the re-created record: %+v, want found with hit %t", i, res, want)
		}
	}
	d.DoIndex(3, kvstore.Write)
	if res := d.DoIndex(3, kvstore.Read); !res.Found || res.Hit {
		t.Fatalf("read after the trace's re-insert: %+v, want a found 1 KB miss", res)
	}
}
