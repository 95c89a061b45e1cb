package server

// In-package tests of the per-run replay decision (frame.go): one owner
// of the GC pause accounting across both paths, the mutation latch,
// the deleted-record set and the lazy re-price. End-to-end bit-identity
// of every trace backing and replay path lives in
// internal/client/matrix_test.go; these pin FrameTable's own contracts
// at the server layer.

import (
	"math/rand"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/kvstore/treekv"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/ycsb"
)

// serveRuns serves one frame the way the client's replay loop does: run
// by run, each down the path FrameTable names. It returns every
// request's latency and how many runs the kernel served.
func serveRuns(t *testing.T, d *Deployment, keys []uint32, kinds []uint8, rw bool) (lat []float64, kernelRuns int) {
	t.Helper()
	for from := 0; from < len(keys); {
		tab, end := d.FrameTable(keys, kinds, rw, from)
		if end <= from || end > len(keys) {
			t.Fatalf("FrameTable named run [%d, %d) of a %d-request frame", from, end, len(keys))
		}
		if tab == nil {
			for i := from; i < end; i++ {
				lat = append(lat, float64(d.DoIndex(int(keys[i]), kvstore.OpKind(kinds[i])).Latency))
			}
		} else {
			kernelRuns++
			block := tab.Block()
			if served := tab.Serve(keys[from:end], kinds[from:end], 0, block); served != end-from {
				t.Fatalf("Serve stopped at %d/%d", served, end-from)
			}
			for _, l := range block[:end-from] {
				lat = append(lat, float64(l))
			}
		}
		from = end
	}
	return lat, kernelRuns
}

// TestStreamHandshakeMatchesPerOp is the soundness contract of
// interleaving per-op requests into a batched replay: a kernel-served
// prefix, a Delete served per-op and a suffix served through the lazily
// re-priced table — each as FrameTable directs, as three frames and as
// one — must reproduce the all-per-op replay of the same op sequence
// exactly: latencies and final clock.
func TestStreamHandshakeMatchesPerOp(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
			pt := w.Packed()
			mid := len(pt.Keys) / 2
			delKey := pt.Keys[mid]
			keys := append(append(append([]uint32(nil), pt.Keys[:mid]...), delKey), pt.Keys[mid:]...)
			kinds := append(append(append([]uint8(nil), pt.Kinds[:mid]...), uint8(kvstore.Delete)), pt.Kinds[mid:]...)
			// The suffix must not touch the dead record, or it would not
			// be one kernel run: remap its occurrences.
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
			check := func(name string, d *Deployment, got []float64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: op %d: handshake latency %v != per-op %v", name, i, got[i], want[i])
					}
				}
				if d.Clock() != perOp.Clock() {
					t.Fatalf("%s: clocks diverged: handshake %v, per-op %v", name, d.Clock(), perOp.Clock())
				}
			}

			d := loadHalfFast(t, cfg, w)
			got, kernelRuns := serveRuns(t, d, keys[:mid], kinds[:mid], true)
			del, n := serveRuns(t, d, keys[mid:mid+1], kinds[mid:mid+1], false)
			if d.repriced[causeStructural] != 0 {
				t.Fatal("structural frame re-priced the table eagerly")
			}
			suffix, m := serveRuns(t, d, keys[mid+1:], kinds[mid+1:], true)
			if kernelRuns+n+m != 2 {
				t.Fatalf("%d frames took the kernel, want the prefix and the suffix", kernelRuns+n+m)
			}
			if d.repriced != [numRepriceCauses]int64{causeLoad: 1, causeStructural: 1} {
				t.Fatalf("re-prices by cause %v, want one load and one structural", d.repriced)
			}
			check("three frames", d, append(append(got, del...), suffix...))

			// One frame: the kernel serves the prefix, and the suffix too
			// where re-pricing after the Delete is bounded; treekv's is
			// not, so its suffix goes per-op with the Delete.
			d = loadHalfFast(t, cfg, w)
			if d.BatchTable() == nil {
				t.Fatal("no table after Load")
			}
			got, kernelRuns = serveRuns(t, d, keys, kinds, false)
			wantRuns := 2
			if e == DynamoLike {
				wantRuns = 1
			}
			if kernelRuns != wantRuns || d.frames[pathMixed] != 1 {
				t.Fatalf("one frame: %d kernel runs, %v frames by path; want %d kernel runs in one mixed frame", kernelRuns, d.frames, wantRuns)
			}
			check("one frame", d, got)
		})
	}
}

// TestDeleteDenseRunsMatchPerOp serves frames shaped like a MONITOR
// capture's — Deletes, reads of deleted records, re-inserts and Deletes
// of dead records among reads and overwrites — run by run on every
// engine, and pins what the runs cost in re-pricing: per structural
// request, O(journal) rows on slabkv and hashkv, and none at all on
// treekv, whose journal is unbounded, once a frame carries a Delete.
func TestDeleteDenseRunsMatchPerOp(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.8)
	pt := w.Packed()
	keys := append([]uint32(nil), pt.Keys...)
	kinds := append([]uint8(nil), pt.Kinds...)
	rng := rand.New(rand.NewSource(9))
	structural := 0
	for i := 0; i+3 < len(keys); i += 7 + rng.Intn(20) {
		k := keys[i]
		kinds[i] = uint8(kvstore.Delete)
		keys[i+1], kinds[i+1] = k, uint8(kvstore.Read)
		if rng.Intn(3) > 0 {
			keys[i+2], kinds[i+2] = k, uint8(kvstore.Write)
		} else {
			keys[i+2], kinds[i+2] = k, uint8(kvstore.Delete)
		}
		structural += 2
	}
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			cfg := DefaultConfig(e, 31)
			cfg.Machine.LLCBytes = 1 << 20
			perOp := loadHalfFast(t, cfg, w)
			d := loadHalfFast(t, cfg, w)
			if d.BatchTable() == nil {
				t.Fatal("no table after Load")
			}
			var want, got []float64
			kernelRuns := 0
			for blk := 0; blk < len(keys); blk += ReplayBlockOps {
				end := min(blk+ReplayBlockOps, len(keys))
				for i := blk; i < end; i++ {
					want = append(want, float64(perOp.DoIndex(int(keys[i]), kvstore.OpKind(kinds[i])).Latency))
				}
				lat, n := serveRuns(t, d, keys[blk:end], kinds[blk:end], false)
				got = append(got, lat...)
				kernelRuns += n
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d (kind %d): run-by-run latency %v != per-op %v", i, kinds[i], got[i], want[i])
				}
			}
			if d.Clock() != perOp.Clock() || d.LLCHitRate() != perOp.LLCHitRate() {
				t.Fatalf("clock %v / hit rate %v, per-op %v / %v", d.Clock(), d.LLCHitRate(), perOp.Clock(), perOp.LLCHitRate())
			}
			structRows := d.repricedRows[causeStructural]
			t.Logf("%d kernel runs, %d structural rows re-priced for %d structural requests, frames %v", kernelRuns, structRows, structural, d.frames)
			switch e {
			case DynamoLike:
				if kernelRuns != 0 || d.repriced != [numRepriceCauses]int64{causeLoad: 1} {
					t.Fatalf("treekv: %d kernel runs, re-prices %v; want every Delete-bearing frame per-op and no re-price", kernelRuns, d.repriced)
				}
			case MemcachedLike:
				// A Delete writes one not-found row, a re-insert re-prices
				// the journal's one row.
				if kernelRuns < structural/2 || structRows > int64(structural) {
					t.Fatalf("slabkv: %d kernel runs, %d structural rows re-priced for %d structural requests", kernelRuns, structRows, structural)
				}
			default:
				if kernelRuns < structural/4 || structRows > int64(16*structural) {
					t.Fatalf("hashkv: %d kernel runs, %d structural rows re-priced for %d structural requests", kernelRuns, structRows, structural)
				}
			}
			if d.frames[pathMixed] == 0 && e != DynamoLike {
				t.Fatalf("frames by path %v: no mixed frame", d.frames)
			}
			if r := d.reqs; r[pathKernel]+r[pathPerOp] != int64(len(keys)) {
				t.Fatalf("requests by path %v, want %d in all", r, len(keys))
			}
		})
	}
}

// TestLeadingDeleteTalliesLoad: when a trace's first request is a
// Delete, the Delete is served before any table exists, and the
// whole-table build that follows is the load's re-price, not a
// structural one. Structural re-prices stay bounded by the structural
// requests that caused them.
func TestLeadingDeleteTalliesLoad(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.8)
	pt := w.Packed()
	keys := append([]uint32(nil), pt.Keys...)
	kinds := append([]uint8(nil), pt.Kinds...)
	kinds[0] = uint8(kvstore.Delete)
	const structural = 1 // the trace only reads the deleted record again
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			cfg := DefaultConfig(e, 31)
			cfg.Obs = obs.NewSink()
			d := loadHalfFast(t, cfg, w)
			for blk := 0; blk < len(keys); blk += ReplayBlockOps {
				end := min(blk+ReplayBlockOps, len(keys))
				serveRuns(t, d, keys[blk:end], kinds[blk:end], false)
			}
			d.FlushObs()
			value := func(name, cause string) int64 { return cfg.Obs.Counter(obs.Name(name, "cause", cause)).Value() }
			load, loadRows := value("mnemo_server_reprice_total", "load"), value("mnemo_server_reprice_rows_total", "load")
			st, stRows := value("mnemo_server_reprice_total", "structural"), value("mnemo_server_reprice_rows_total", "structural")
			if e == DynamoLike {
				// Every frame here touches the deleted record, which has
				// no not-found row on treekv, and treekv's journal is
				// unbounded: no table is ever built.
				if load != 0 || st != 0 {
					t.Fatalf("treekv: %d load and %d structural re-prices, want none", load, st)
				}
				return
			}
			if load != 1 || loadRows < int64(len(w.Dataset.Records)-1) {
				t.Fatalf("load re-prices %d of %d rows, want one of the whole table (%d records)", load, loadRows, len(w.Dataset.Records))
			}
			if st > int64(structural) {
				t.Fatalf("%d structural re-prices for %d structural requests", st, structural)
			}
			if e == MemcachedLike && stRows > int64(structural) {
				t.Fatalf("slabkv: %d structural rows re-priced for %d structural requests", stRows, structural)
			}
		})
	}
}

// TestPausesOneOwner pins that the engine is the only holder of its GC
// accounting (DynamoLike / treekv): a run that mixes kernel runs, a
// per-op frame carrying a Delete and a migration serves the latencies
// of the all-per-op reference and leaves every instance with its GC
// count and accumulator — the kernel charges the engines, so no pause
// fires that an engine did not count.
func TestPausesOneOwner(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed100KB, 0.5)
	pt := w.Packed()
	mid := len(pt.Keys) / 2
	delKinds := append([]uint8(nil), pt.Kinds[mid:mid+64]...)
	delKinds[32] = uint8(kvstore.Delete)
	moves := []Move{{Index: 0, To: memsim.Slow}, {Index: len(w.Dataset.Records) - 1, To: memsim.Fast}}
	run := func(cfg Config) (d *Deployment, lat []float64, kernelRuns int) {
		d = loadHalfFast(t, cfg, w)
		frame := func(keys []uint32, kinds []uint8, rw bool) {
			l, k := serveRuns(t, d, keys, kinds, rw)
			lat, kernelRuns = append(lat, l...), kernelRuns+k
		}
		frame(pt.Keys[:mid], pt.Kinds[:mid], true)
		frame(pt.Keys[mid:mid+64], delKinds, false)
		if res := d.ApplyMoves(moves); res.Moves != len(moves) {
			t.Fatalf("moves dropped: %+v", res)
		}
		frame(pt.Keys[mid+64:], pt.Kinds[mid+64:], true)
		return d, lat, kernelRuns
	}
	d, got, kernelRuns := run(DefaultConfig(DynamoLike, 23))
	ref := DefaultConfig(DynamoLike, 23)
	ref.DisableBatchReplay = true
	perOp, want, _ := run(ref)
	if kernelRuns == 0 {
		t.Fatal("no run went through the kernel; test is vacuous")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: latency %v, per-op %v", i, got[i], want[i])
		}
	}
	if d.Clock() != perOp.Clock() {
		t.Fatalf("clocks diverged: %v, per-op %v", d.Clock(), perOp.Clock())
	}
	for i := range d.instances {
		g, r := d.instances[i].(*treekv.Store), perOp.instances[i].(*treekv.Store)
		if r.GCCount() < 2 {
			t.Fatalf("instance %d: %d collections in the per-op reference; test is vacuous", i, r.GCCount())
		}
		ga, _ := g.PauseAccum()
		ra, _ := r.PauseAccum()
		if g.GCCount() != r.GCCount() || ga != ra {
			t.Fatalf("instance %d: %d collections, accumulator %d; per-op %d, %d", i, g.GCCount(), ga, r.GCCount(), ra)
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
	if got, _ := d.FrameTable([]uint32{0}, []uint8{uint8(kvstore.Delete)}, false, 0); got != nil {
		t.Fatal("FrameTable offered the kernel for a Delete")
	}
	if d.ResetRun(2) {
		t.Error("ResetRun succeeded after a per-op frame")
	}
}

// TestRetryBatchTableUnavailable: the lazy re-price never conjures a
// table where BatchTable would not — batching disabled, deployment
// unloaded — and a Read of a deleted record goes per-op until a Write
// re-inserts it, unless the engine has a not-found row for it.
func TestRetryBatchTableUnavailable(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	keys := []uint32{3, 4}
	reads := []uint8{uint8(kvstore.Read), uint8(kvstore.Read)}
	del, write := []uint8{uint8(kvstore.Delete)}, []uint8{uint8(kvstore.Write)}

	cfg := DefaultConfig(RedisLike, 5)
	cfg.DisableBatchReplay = true
	if got, end := loadHalfFast(t, cfg, w).FrameTable(keys, reads, true, 0); got != nil || end != 2 {
		t.Error("FrameTable offered a table with batching disabled")
	}
	if got, _ := NewDeployment(DefaultConfig(RedisLike, 5)).FrameTable(nil, nil, true, 0); got != nil {
		t.Error("FrameTable offered a table on an unloaded deployment")
	}

	d := loadHalfFast(t, DefaultConfig(RedisLike, 5), w)
	tab, _ := d.FrameTable(keys, reads, true, 0)
	if tab == nil {
		t.Fatal("FrameTable did not build the table on first use")
	}
	d.FrameTable(keys[:1], del, false, 0)
	d.DoIndex(3, kvstore.Delete)
	if got, end := d.FrameTable(keys, reads, true, 0); got != nil || end != 1 {
		t.Errorf("run [0, %d) of a frame reading a deleted record: table %v, want [0, 1) per-op", end, got != nil)
	}
	if got, end := d.FrameTable(keys, reads, true, 1); got != tab || end != 2 {
		t.Error("FrameTable withheld the re-priced table from a run of live records")
	}
	d.FrameTable(keys[:1], write, false, 0)
	d.DoIndex(3, kvstore.Write)
	if got, _ := d.FrameTable(keys, reads, true, 0); got != tab {
		t.Error("FrameTable withheld the kernel after the record was re-inserted")
	}
	if want := [numRepriceCauses]int64{causeLoad: 1, causeStructural: 2}; d.repriced != want {
		t.Errorf("re-prices by cause %v, want %v", d.repriced, want)
	}

	// The slab engine's not-found row lets the kernel read the dead record.
	d = loadHalfFast(t, DefaultConfig(MemcachedLike, 5), w)
	tab, _ = d.FrameTable(keys, reads, true, 0)
	d.FrameTable(keys[:1], del, false, 0)
	d.DoIndex(3, kvstore.Delete)
	if got, end := d.FrameTable(keys, reads, true, 0); got != tab || end != 2 {
		t.Errorf("slabkv frame reading a deleted record: table %v, run [0, %d); want the whole frame on the kernel", got != nil, end)
	}
}

// TestFrameTrafficFlush: the frame-path, request-path, re-price and
// re-priced-row tallies reach the sink through FlushObs, once — a Load
// re-price probes every row, a Delete or a migration only the rows its
// engine relaid — a frame served both ways counts as mixed, and
// DropBatchTable sends every later frame per-op.
func TestFrameTrafficFlush(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	cfg := DefaultConfig(RedisLike, 5)
	cfg.Obs = obs.NewSink()
	d := loadHalfFast(t, cfg, w)
	keys := []uint32{3, 4}
	reads := []uint8{uint8(kvstore.Read), uint8(kvstore.Read)}
	value := func(name, label, v string) int64 { return cfg.Obs.Counter(obs.Name(name, label, v)).Value() }

	d.FrameTable(keys, reads, true, 0)
	d.FrameTable(keys[:1], []uint8{uint8(kvstore.Delete)}, false, 0)
	d.DoIndex(3, kvstore.Delete)
	d.FrameTable(keys[1:], reads[1:], true, 0)
	d.FlushObs()
	d.FlushObs() // idempotent: nothing new to publish
	if k, p := value("mnemo_client_frames_total", "path", "kernel"), value("mnemo_client_frames_total", "path", "perop"); k != 2 || p != 1 {
		t.Fatalf("flushed %d kernel + %d per-op frames, want 2 + 1", k, p)
	}
	if r := value("mnemo_client_requests_total", "path", "perop"); r != 1 {
		t.Fatalf("flushed %d per-op requests, want the Delete", r)
	}
	if l, s, m := value("mnemo_server_reprice_total", "cause", "load"), value("mnemo_server_reprice_total", "cause", "structural"),
		value("mnemo_server_reprice_total", "cause", "migrate"); l != 1 || s != 1 || m != 0 {
		t.Fatalf("flushed re-prices load=%d structural=%d migrate=%d, want 1, 1, 0", l, s, m)
	}
	rows := func(cause string) int64 { return value("mnemo_server_reprice_rows_total", "cause", cause) }
	if l, s := rows("load"), rows("structural"); l != int64(len(w.Dataset.Records)) || s >= 16 {
		t.Fatalf("flushed re-priced rows load=%d structural=%d, want every record and the deleted one's chain mates", l, s)
	}

	// One frame: read 4 on the kernel, re-insert 3 per-op, read 4 again.
	mixed := []uint32{4, 3, 4}
	kinds := []uint8{uint8(kvstore.Read), uint8(kvstore.Write), uint8(kvstore.Read)}
	for from := 0; from < len(mixed); {
		tab, end := d.FrameTable(mixed, kinds, false, from)
		if tab == nil {
			for i := from; i < end; i++ {
				d.DoIndex(int(mixed[i]), kvstore.OpKind(kinds[i]))
			}
		} else {
			tab.Serve(mixed[from:end], kinds[from:end], 0, tab.Block())
		}
		from = end
	}
	d.FlushObs()
	if m, k, p := value("mnemo_client_frames_total", "path", "mixed"), value("mnemo_client_requests_total", "path", "kernel"),
		value("mnemo_client_requests_total", "path", "perop"); m != 1 || k != 2 || p != 2 {
		t.Fatalf("flushed %d mixed frames, %d kernel + %d per-op requests; want 1, 2 + 2", m, k, p)
	}

	to := memsim.Slow
	if d.RecordTiers()[4] == memsim.Slow {
		to = memsim.Fast
	}
	d.ApplyMoves([]Move{{Index: 4, To: to}})
	d.FrameTable(keys[1:], reads[1:], true, 0)
	d.FlushObs()
	if m, r := value("mnemo_server_reprice_total", "cause", "migrate"), rows("migrate"); m != 1 || r < 1 || r >= 16 {
		t.Fatalf("one move: %d migrate re-prices of %d rows, want 1 of the moved record and its chain mates", m, r)
	}

	d.DropBatchTable()
	if got, _ := d.FrameTable(keys[1:], reads[1:], true, 0); got != nil || d.BatchTable() != nil {
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
	reads := []uint8{uint8(kvstore.Read), uint8(kvstore.Read)}
	d.FrameTable(keys[:1], []uint8{uint8(kvstore.Delete)}, false, 0)
	d.DoIndex(3, kvstore.Delete)
	d.DoIndex(3, kvstore.Delete) // deleting a dead record changes nothing
	if got, end := d.FrameTable(keys, reads, true, 0); d.nDead != 1 || got != nil || end != 1 {
		t.Fatalf("nDead = %d after deleting record 3 twice; a read of it must go per-op", d.nDead)
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
	tab, end := d.FrameTable(keys, reads, true, 0)
	if tab == nil || end != 2 {
		t.Fatal("frame touching the re-created record still refused the kernel")
	}
	if d.tiers[3] != to {
		t.Fatal("re-created record not priced on its destination tier")
	}
	if got := d.DoIndex(3, kvstore.Read); !got.Found {
		t.Fatal("migrated record not found on its destination tier")
	}
}
