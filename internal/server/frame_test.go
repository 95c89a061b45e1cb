package server

// In-package tests of the per-frame replay decision (frame.go): the
// pause-accumulator hand-over in both directions, the mutation latch,
// the deleted-record set and the lazy re-price. End-to-end bit-identity
// of every trace backing and replay path lives in
// internal/client/matrix_test.go; these pin FrameTable's own contracts
// at the server layer.

import (
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/ycsb"
)

// TestStreamHandshakeMatchesPerOp is the soundness contract of
// interleaving a per-op frame into a batched replay: serving a prefix
// through the kernel, a Delete frame per-op and the suffix through the
// lazily re-priced table — each as FrameTable directs — must reproduce
// the all-per-op replay of the same op sequence exactly: latencies and
// final clock.
func TestStreamHandshakeMatchesPerOp(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
			pt := w.Packed()
			mid := len(pt.Keys) / 2
			delKey := pt.Keys[mid]
			keys := append(append(append([]uint32(nil), pt.Keys[:mid]...), delKey), pt.Keys[mid:]...)
			kinds := append(append(append([]uint8(nil), pt.Kinds[:mid]...), uint8(kvstore.Delete)), pt.Kinds[mid:]...)
			// The suffix must not touch the dead record, or FrameTable
			// would send it per-op too: remap its occurrences.
			for i := mid + 1; i < len(keys); i++ {
				if keys[i] == delKey {
					keys[i] = (delKey + 1) % uint32(len(w.Dataset.Records))
				}
			}
			cfg := DefaultConfig(e, 23)

			// Reference: the whole sequence per-op.
			perOp := loadHalfFast(t, cfg, w)
			want := make([]float64, 0, len(keys))
			for i, k := range keys {
				want = append(want, float64(perOp.DoIndex(int(k), kvstore.OpKind(kinds[i])).Latency))
			}

			d := loadHalfFast(t, cfg, w)
			got := make([]float64, 0, len(keys))
			kernelFrames := 0
			frame := func(ks []uint32, ds []uint8, rw bool) {
				tab := d.FrameTable(ks, rw)
				if tab == nil {
					for i, k := range ks {
						got = append(got, float64(d.DoIndex(int(k), kvstore.OpKind(ds[i])).Latency))
					}
					return
				}
				kernelFrames++
				lat := tab.Block()
				if served := tab.Serve(ks, ds, 0, lat); served != len(ks) {
					t.Fatalf("Serve stopped at %d/%d", served, len(ks))
				}
				for _, l := range lat[:len(ks)] {
					got = append(got, float64(l))
				}
			}
			frame(keys[:mid], kinds[:mid], true)
			frame(keys[mid:mid+1], kinds[mid:mid+1], false)
			if d.repriced[causeStructural] != 0 {
				t.Fatal("structural frame re-priced the table eagerly")
			}
			frame(keys[mid+1:], kinds[mid+1:], true)
			if kernelFrames != 2 {
				t.Fatalf("%d frames took the kernel, want the prefix and the suffix", kernelFrames)
			}
			if d.repriced != [numRepriceCauses]int64{causeLoad: 1, causeStructural: 1} {
				t.Fatalf("re-prices by cause %v, want one load and one structural", d.repriced)
			}

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: handshake latency %v != per-op %v", i, got[i], want[i])
				}
			}
			if d.Clock() != perOp.Clock() {
				t.Fatalf("clocks diverged: handshake %v, per-op %v", d.Clock(), perOp.Clock())
			}
		})
	}
}

// TestSyncPausesBothDirections pins the accumulator hand-over on the
// engine with real pause dynamics (DynamoLike / treekv): after batched
// frames the kernel's mirror leads the engines; a per-op frame's
// FrameTable writes it into them, per-op requests then advance the
// engines past the mirror, and the next kernel frame's FrameTable reads
// them back.
func TestSyncPausesBothDirections(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 0.5)
	d := loadHalfFast(t, DefaultConfig(DynamoLike, 23), w)
	tab := d.BatchTable()
	if tab == nil {
		t.Fatal("no batch table")
	}
	serveAll(t, d, w.Packed())

	brs := make([]kvstore.BatchReplayer, len(d.instances))
	for i, inst := range d.instances {
		br, ok := inst.(kvstore.BatchReplayer)
		if !ok {
			t.Fatal("treekv instance is not a BatchReplayer")
		}
		brs[i] = br
	}
	diverged := false
	for i, br := range brs {
		if tab.pause[i].accum != br.ReplayPauses().Accum {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("batched replay never advanced the mirror past the engines; test is vacuous")
	}

	keys := make([]uint32, 64)
	for i := range keys {
		keys[i] = uint32(i)
	}
	if d.FrameTable(keys, false) != nil {
		t.Fatal("FrameTable offered the kernel for a frame that is not read/write-only")
	}
	for i, br := range brs {
		if got, want := br.ReplayPauses().Accum, tab.pause[i].accum; got != want {
			t.Fatalf("engine %d accum after the hand-over = %d, want mirror %d", i, got, want)
		}
	}

	// Per-op writes advance the engines' own accounting; the mirror is
	// stale until the kernel is asked for again.
	for _, k := range keys {
		d.DoIndex(int(k), kvstore.Write)
	}
	if d.FrameTable(keys, true) != tab {
		t.Fatal("FrameTable withheld the kernel from a read/write frame")
	}
	for i, br := range brs {
		if got, want := tab.pause[i].accum, br.ReplayPauses().Accum; got != want {
			t.Fatalf("mirror %d after the hand-back = %d, want engine %d", i, got, want)
		}
	}
}

// TestMarkMutatedBlocksResetRun: a frame served per-op advances engine
// state the post-Load snapshot does not cover, so it latches the
// deployment mutated and ResetRun refuses.
func TestMarkMutatedBlocksResetRun(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	d := loadHalfFast(t, DefaultConfig(RedisLike, 7), w)
	if !d.Rewindable() {
		t.Fatal("pristine deployment not rewindable")
	}
	if !d.ResetRun(1) {
		t.Fatal("ResetRun refused on a pristine deployment")
	}
	if d.FrameTable([]uint32{0}, false) != nil {
		t.Fatal("FrameTable offered the kernel for a frame that is not read/write-only")
	}
	if d.ResetRun(2) {
		t.Error("ResetRun succeeded after a per-op frame")
	}
}

// TestRetryBatchTableUnavailable: the lazy re-price never conjures a
// table where BatchTable would not — batching disabled, deployment
// unloaded — and a frame touching a deleted record goes per-op until a
// Write re-inserts it.
func TestRetryBatchTableUnavailable(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	keys := []uint32{3, 4}

	cfg := DefaultConfig(RedisLike, 5)
	cfg.DisableBatchReplay = true
	if d := loadHalfFast(t, cfg, w); d.FrameTable(keys, true) != nil {
		t.Error("FrameTable offered a table with batching disabled")
	}
	if NewDeployment(DefaultConfig(RedisLike, 5)).FrameTable(nil, true) != nil {
		t.Error("FrameTable offered a table on an unloaded deployment")
	}

	d := loadHalfFast(t, DefaultConfig(RedisLike, 5), w)
	tab := d.FrameTable(keys, true)
	if tab == nil {
		t.Fatal("FrameTable did not build the table on first use")
	}
	d.FrameTable(keys[:1], false)
	d.DoIndex(3, kvstore.Delete)
	if d.FrameTable(keys, true) != nil {
		t.Error("FrameTable offered the kernel for a frame touching a deleted record")
	}
	if got := d.FrameTable(keys[1:], true); got != tab {
		t.Error("FrameTable withheld the re-priced table from a frame of live records")
	}
	d.FrameTable(keys[:1], true)
	d.DoIndex(3, kvstore.Write)
	if got := d.FrameTable(keys, true); got != tab {
		t.Error("FrameTable withheld the kernel after the record was re-inserted")
	}
	if want := [numRepriceCauses]int64{causeLoad: 1, causeStructural: 2}; d.repriced != want {
		t.Errorf("re-prices by cause %v, want %v", d.repriced, want)
	}
}

// TestFrameTrafficFlush: the frame-path, re-price and re-priced-row
// tallies reach the sink through FlushObs, once — a Load re-price probes
// every row, a Delete or a migration only the rows its engine relaid —
// and DropBatchTable sends every later frame per-op.
func TestFrameTrafficFlush(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	cfg := DefaultConfig(RedisLike, 5)
	cfg.Obs = obs.NewSink()
	d := loadHalfFast(t, cfg, w)
	keys := []uint32{3, 4}
	value := func(name, label, v string) int64 { return cfg.Obs.Counter(obs.Name(name, label, v)).Value() }

	d.FrameTable(keys, true)
	d.FrameTable(keys[:1], false)
	d.DoIndex(3, kvstore.Delete)
	d.FrameTable(keys[1:], true)
	d.FlushObs()
	d.FlushObs() // idempotent: nothing new to publish
	if k, p := value("mnemo_client_frames_total", "path", "kernel"), value("mnemo_client_frames_total", "path", "perop"); k != 2 || p != 1 {
		t.Fatalf("flushed %d kernel + %d per-op frames, want 2 + 1", k, p)
	}
	if l, s, m := value("mnemo_server_reprice_total", "cause", "load"), value("mnemo_server_reprice_total", "cause", "structural"),
		value("mnemo_server_reprice_total", "cause", "migrate"); l != 1 || s != 1 || m != 0 {
		t.Fatalf("flushed re-prices load=%d structural=%d migrate=%d, want 1, 1, 0", l, s, m)
	}
	rows := func(cause string) int64 { return value("mnemo_server_reprice_rows_total", "cause", cause) }
	if l, s := rows("load"), rows("structural"); l != int64(len(w.Dataset.Records)) || s >= 16 {
		t.Fatalf("flushed re-priced rows load=%d structural=%d, want every record and the deleted one's chain mates", l, s)
	}

	to := memsim.Slow
	if d.RecordTiers()[4] == memsim.Slow {
		to = memsim.Fast
	}
	d.ApplyMoves([]Move{{Index: 4, To: to}})
	d.FrameTable(keys[1:], true)
	d.FlushObs()
	if m, r := value("mnemo_server_reprice_total", "cause", "migrate"), rows("migrate"); m != 1 || r < 1 || r >= 16 {
		t.Fatalf("one move: %d migrate re-prices of %d rows, want 1 of the moved record and its chain mates", m, r)
	}

	d.DropBatchTable()
	if d.FrameTable(keys[1:], true) != nil || d.BatchTable() != nil {
		t.Fatal("kernel still on offer after DropBatchTable")
	}
	d.FlushObs()
	if p := value("mnemo_client_frames_total", "path", "perop"); p != 2 {
		t.Fatalf("per-op frames after the drop = %d, want 2", p)
	}
}

// TestApplyMovesResurrectsDeleted pins the defined behaviour of
// migrating a record the trace has deleted: the copy writes it to the
// destination tier, so it is live again — out of the deleted set, priced
// by the next re-price, and servable by the kernel.
func TestApplyMovesResurrectsDeleted(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	d := loadHalfFast(t, DefaultConfig(RedisLike, 5), w)
	keys := []uint32{3, 4}
	d.FrameTable(keys[:1], false)
	d.DoIndex(3, kvstore.Delete)
	d.DoIndex(3, kvstore.Delete) // deleting a dead record changes nothing
	if d.nDead != 1 || d.FrameTable(keys, true) != nil {
		t.Fatalf("nDead = %d after deleting record 3 twice; frame touching it must go per-op", d.nDead)
	}
	to := memsim.Slow
	if d.RecordTiers()[3] == memsim.Slow {
		to = memsim.Fast
	}
	if res := d.ApplyMoves([]Move{{Index: 3, To: to}}); res.Moves != 1 {
		t.Fatalf("move of the deleted record dropped: %+v", res)
	}
	if d.nDead != 0 {
		t.Fatalf("nDead = %d after the migration re-created record 3", d.nDead)
	}
	tab := d.FrameTable(keys, true)
	if tab == nil {
		t.Fatal("frame touching the re-created record still refused the kernel")
	}
	if tab.costs[3].tier != uint8(to) {
		t.Fatal("re-created record not priced on its destination tier")
	}
	if got := d.DoIndex(3, kvstore.Read); !got.Found {
		t.Fatal("migrated record not found on its destination tier")
	}
}
