package server

import (
	"fmt"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/simclock"
)

// Batched, table-driven replay kernel (DESIGN.md §12).
//
// After Load quiesces the engines, every operation on a resident key has
// a static trace: fixed pointer chases, fixed touched bytes, fixed
// payload size. BatchTable folds those constants through the pricing
// formula once per record — one precomputed pre-noise service time per
// (kind, LLC hit/miss) combination, per lane — and ServeRun replays whole
// runs of requests against the flat table. The only state touched per
// request is the state that genuinely varies per request: the LLC hit
// bit, the noise RNG stream, the GC-pause accumulator and the simulated
// clock. The accumulator is the engine's own: on an engine with a pause
// model (treekv) each request makes one interface call,
// kvstore.BatchReplayer.ChargeReplay; on the others none remains.
//
// Bit-identity with the per-operation path is by construction: the table
// builder prices each record's static trace with the formula the per-op
// stage 1 prices a live trace with (staticCost), and both paths share the
// lane stage (lanes.go), so they consume the same noise draws and the
// same LLC decisions in the same order.

// ReplayBlockOps is the number of requests a client serves per kernel
// call. It matches the per-op path's historical cancellation-poll stride
// (one ctx check every 4096 requests), so hoisting the poll to block
// granularity preserves the cancellation latency bound documented there.
const ReplayBlockOps = 4096

// costRow is one record's precomputed pre-noise service time on one
// lane (CPU + memory, MLP and write penalty applied), indexed by
// costSlot(kind, hit).
type costRow [4]float64

// costSlot indexes a costRow by a kernel request's kind (Read or Write)
// and its LLC outcome (1 = hit): read miss, read hit, write miss, write
// hit. The masks keep the index in range without a bounds check.
func costSlot(kind, hit uint8) uint8 { return (kind&1)<<1 | hit&1 }

// llcFootprint is the number of bytes a request of the given kind on a
// record of the given payload size occupies in the LLC: the valueBytes
// the per-op path touches the cache with, int/float round trips
// included. A read recovers the payload from the engine's amplified
// trace; a write uses the stored size directly. The cost table and the
// LLC walker (llcstream.go) both take it from here.
func llcFootprint(kind uint8, size int, readAmp float64) int {
	if kvstore.OpKind(kind) != kvstore.Read {
		return size
	}
	touched := kvstore.Amplify(size, readAmp)
	if readAmp > 1 {
		return int(float64(touched) / readAmp)
	}
	return touched
}

// ReplayTable is a deployment's batched-replay state: the per-lane cost
// table. It is bound to the deployment that built it and shares its
// single-threaded discipline.
type ReplayTable struct {
	d *Deployment
	// cost holds record i's row on lane k at i·lanes + k: a record's
	// rows on the two lanes of a baseline pair share one cache line.
	cost  []costRow
	lanes int
}

// Block returns a block-sized latency scratch buffer for Serve calls:
// lane 0's buffer of the deployment's first frame. The buffer is reused
// across blocks and runs; its contents are valid only until the next
// Serve.
func (t *ReplayTable) Block() []simclock.Duration { return t.d.Frame(0).Lat(0) }

// repriceCause says why the cost table is stale; priced means it is not.
type repriceCause uint8

const (
	priced repriceCause = iota
	causeLoad
	causeMigrate
	causeStructural
	numRepriceCauses
)

// BatchTable returns the deployment's batched-replay cost table, pricing
// it first if a Load, a migration or a structural per-op request left it
// stale. It returns nil — directing the caller to the per-operation
// path — when batching is disabled by config, the deployment is
// unloaded, or an engine instance cannot promise static traces
// (kvstore.BatchReplayer absent or not ReplayReady); that answer is
// latched until the table next goes stale.
//
// Replay loops ask FrameTable, per run, instead: per-op requests may
// interleave with Serve only where it says the table is current.
func (d *Deployment) BatchTable() *ReplayTable {
	if d.cfg.DisableBatchReplay {
		return nil
	}
	if d.stale != priced {
		d.reprice()
	}
	return d.table
}

// reprice prices the cost table from the engines' live structure — the
// one routine behind the first build after Load and the refresh after a
// migration or a structural frame. Inserting or removing a record
// reshapes an engine's internal structure (hash chains, tree nodes),
// which can change the static trace of records no event named, and the
// per-op reference path would price those live; so a refresh re-probes
// exactly the rows the engines' relayout journals report
// (kvstore.BatchReplayer.Relaid) — the moved and re-inserted records and
// their chain mates — and every live row when there is no table to
// refresh (Load drops it) or an engine reports its change unbounded (a
// hash table resize, a slabkv eviction, any treekv insert or remove).
// Both journals are drained on every call, so each covers exactly the
// changes since the table was last priced. The table's identity and its
// latency scratch survive a refresh. A deleted record's row is its
// not-found row where the engines promise one (noteStructural writes it
// at the Delete), and is skipped otherwise: the engines hold no trace
// for it, and FrameTable never hands out the table for a request that
// would read it.
//
// Nothing is quiesced here: Load and ApplyMoves settle deferred
// structural work themselves, and after a structural frame the per-op
// reference replay of the same trace leaves it pending too.
//
// When an engine has stopped promising static traces (a tree
// delete-merge that left a full node, say) the table is dropped and the
// kernel stays off until the next event retries.
func (d *Deployment) reprice() {
	cause := d.stale
	d.repriced[cause]++
	d.stale = priced
	t := d.table
	d.table = nil
	brs := d.replayers
	if brs[0] == nil || brs[1] == nil {
		return
	}
	bounded := d.drainRelaid(brs, t != nil)
	for _, br := range brs {
		if !br.ReplayReady() {
			return
		}
	}
	if bounded {
		// d.relaid holds each reported row once, so the tally counts live
		// rows on both paths (a reported key is resident, so its row is
		// live). Rows are priced independently: journal order will do.
		d.repricedRows[cause] += int64(len(d.relaid))
		for _, i := range d.relaid {
			if !d.fillCost(t, int(i), brs) {
				return
			}
		}
	} else {
		if t == nil {
			t = &ReplayTable{d: d, cost: make([]costRow, len(d.lanes)*len(d.records)), lanes: len(d.lanes)}
		}
		rows := len(d.records)
		if !d.missRows {
			rows -= d.nDead
		}
		d.repricedRows[cause] += int64(rows)
		for i := range d.records {
			if !d.fillCost(t, i, brs) {
				return
			}
		}
	}
	d.table = t
}

// DropBatchTable latches the batched kernel off for the rest of the
// deployment's life, as DisableBatchReplay would have from the start:
// every later frame goes per-op. It exists for regression tests that
// need to force the mid-run per-op fallback deterministically.
func (d *Deployment) DropBatchTable() {
	d.cfg.DisableBatchReplay, d.table = true, nil
}

// drainRelaid drains both engines' relayout journals. With collect set it
// gathers the dataset rows they report into d.relaid, each once (a chain
// reshaped twice is reported twice), and returns whether both journals
// were bounded; otherwise it discards them and returns false.
func (d *Deployment) drainRelaid(brs [2]kvstore.BatchReplayer, collect bool) bool {
	fn := func(string, uint64) {}
	if collect {
		if d.noteRelaid == nil {
			d.noteRelaid = func(key string, id uint64) {
				if i, ok := d.row(key, id); ok && d.relaidGen[i] != d.relaidStamp {
					d.relaidGen[i] = d.relaidStamp
					d.relaid = append(d.relaid, int32(i))
				}
			}
		}
		if len(d.relaidGen) != len(d.records) {
			d.relaidGen, d.relaidStamp = make([]uint32, len(d.records)), 0
		}
		if d.relaidStamp++; d.relaidStamp == 0 { // wrapped: restamp
			clear(d.relaidGen)
			d.relaidStamp = 1
		}
		fn = d.noteRelaid
		d.relaid = d.relaid[:0]
	}
	bounded := collect
	for _, br := range brs {
		if !br.Relaid(fn) {
			bounded = false
		}
	}
	return bounded
}

// fillCost prices one record into the table from its current tier's
// static trace — the per-record half of reprice — on every lane: the
// LLC-hit slots are the same on each, the miss slots priced on the
// lane's tier. A deleted record gets its not-found row, or is skipped.
// It returns false when the record's trace is not static.
func (d *Deployment) fillCost(t *ReplayTable, i int, brs [2]kvstore.BatchReplayer) bool {
	if d.nDead > 0 && d.dead[i] {
		if d.missRows {
			d.fillMiss(t, i)
		}
		return true
	}
	rec := &d.records[i]
	tier := d.tiers[i]
	getChases, putChases, ok := brs[tier].StaticTrace(rec.Key, rec.ID)
	if !ok {
		return false
	}

	readTouched := kvstore.Amplify(rec.Size, d.profile.ReadAmplification)
	readVB := llcFootprint(uint8(kvstore.Read), rec.Size, d.profile.ReadAmplification)
	writeTouched := kvstore.Amplify(rec.Size, d.profile.WriteAmplification)

	r, w := uint8(kvstore.Read), uint8(kvstore.Write)
	var c costRow
	c[costSlot(r, 1)] = d.staticCost(kvstore.Read, getChases, readTouched, readVB, &memsim.LLCParams)
	c[costSlot(w, 1)] = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, &memsim.LLCParams)
	for k := range t.lanes {
		node := &d.machine.Node(d.laneTier(k, i)).Params
		c[costSlot(r, 0)] = d.staticCost(kvstore.Read, getChases, readTouched, readVB, node)
		c[costSlot(w, 0)] = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, node)
		t.cost[i*t.lanes+k] = c
	}
	return true
}

// fillMiss prices deleted record i's not-found row on every lane: its
// read slots hold what the per-op path charges a Get that misses on the
// lane's tier — the engine's miss chases, no bytes touched, a 0-byte
// value, as valueBytes gives a trace that was not Found. Its write slots
// are never read: a Write to a deleted record is a structural re-insert.
func (d *Deployment) fillMiss(t *ReplayTable, i int) {
	tier := d.tiers[i]
	chases := d.missChases[tier]
	r := uint8(kvstore.Read)
	var c costRow
	c[costSlot(r, 1)] = d.staticCost(kvstore.Read, chases, 0, 0, &memsim.LLCParams)
	for k := range t.lanes {
		c[costSlot(r, 0)] = d.staticCost(kvstore.Read, chases, 0, 0, &d.machine.Node(d.laneTier(k, i)).Params)
		t.cost[i*t.lanes+k] = c
	}
}

// staticCost is the pricing formula, shared by the live path (price)
// and the batched kernel's cost table, so the precomputed sum is
// bit-equal to what the live path produces: transfer cost (with the
// write penalty applied to the transfer term only), plus chase cost,
// divided by MLP, plus the per-byte CPU cost.
func (d *Deployment) staticCost(kind kvstore.OpKind, chases, touched, vb int, medium *memsim.NodeParams) float64 {
	chaseNs, transferNs := medium.OpCost(chases, touched)
	if kind == kvstore.Write {
		transferNs *= d.profile.WritePenalty
	}
	memNs := chaseNs + transferNs
	if mlp := d.profile.MLP; mlp != 1 {
		memNs /= mlp
	}
	cpuNs := d.profile.CPUBaseNs + d.profile.CPUPerByteNs*float64(vb)
	return cpuNs + memNs
}

// Serve replays one block of at most ReplayBlockOps requests — keys[i]
// is a dataset record index, kinds[i] its op kind — through the cost
// table, advancing the clock and writing each request's latency into
// lat, which must hold len(keys) entries (Block does). It serves every
// request and returns len(keys). Serve is ServeRun over one kernel run
// that is its own frame, on a deployment of one lane; it panics on more
// lanes, and on a non-zero maxClock: there is no simulated-time bound.
//
// With a stream attached the block must lie within what the stream has
// published: the client's AwaitFrame ensures it, and Serve panics
// otherwise.
func (t *ReplayTable) Serve(keys []uint32, kinds []uint8, maxClock simclock.Duration, lat []simclock.Duration) int {
	if maxClock != 0 {
		panic(fmt.Sprintf("server: Serve with a simulated-time bound of %v; there is none, pass 0", maxClock))
	}
	d := t.d
	d.oneLane("Serve")
	d.ServeRun(d.Frame(0), t, keys, kinds, 0, len(keys), lat)
	return len(keys)
}

// stage1 is stage 1 of a kernel run, requests [from, end) of a frame:
// every request's LLC hit bit, the cost it selects on each lane, and —
// on an engine with a pause model — the GC pauses, charged to the
// instance that serves the record as GetID or PutID would charge them.
func (t *ReplayTable) stage1(f *Frame, keys []uint32, kinds []uint8, from, end int) {
	keys, kinds = keys[from:end], kinds[from:end]
	hit := f.hit[from:end]
	t.d.takeHits(keys, kinds, hit)
	if t.lanes == 1 {
		ns := f.ns[0][from:end]
		for i, key := range keys {
			ns[i] = t.cost[key][costSlot(kinds[i], hit[i])]
		}
	} else {
		for k := range t.lanes {
			ns := f.ns[k][from:end]
			for i, key := range keys {
				ns[i] = t.cost[int(key)*t.lanes+k][costSlot(kinds[i], hit[i])]
			}
		}
	}
	d := t.d
	if !d.pausing {
		return
	}
	for i, key := range keys {
		if p := d.replayers[d.tiers[key]].ChargeReplay(d.records[key].Size); p != 0 {
			f.pauses = append(f.pauses, pauseAt{i: from + i, ns: p})
		}
	}
}

// ResetRun rewinds a batch-capable deployment to its post-Load state
// under a new measurement seed, so a caller replaying one populated
// store again (the replay benchmarks) need not re-populate it. It
// resets every lane's clock, the op counter, private LLC walker and LLC
// tallies, detaches any LLC stream, re-seeds each lane's noise stream
// (lane k at seed plus its offset), and restores the engines' pause
// accumulators to their post-load snapshot; telemetry parity with a
// fresh deployment is kept by re-counting the deployment.
//
// It returns false — leaving the deployment untouched — when the
// deployment is not Rewindable.
func (d *Deployment) ResetRun(seed int64) bool {
	if !d.Rewindable() {
		return false
	}
	d.cfg.Seed = seed
	for _, l := range d.lanes {
		l.clock.Reset()
		l.noise.reseed(seed + l.seedOffset)
	}
	d.ops = 0
	for i, br := range d.replayers {
		br.SetPauseAccum(d.pauseReset[i])
	}
	if d.llc != nil {
		d.llc.reset()
	}
	d.llcs, d.llcOff, d.llcHits, d.llcMisses = nil, 0, 0, 0
	d.resetRunTelemetry()
	return true
}

// Rewindable reports whether ResetRun can rewind the deployment for
// another repetition: it has a cost table, and every frame since Load
// went through it. A frame served per-op advances engine state the
// post-Load snapshot does not cover, and a migration leaves the store
// contents diverged from it; either latches the deployment mutated and
// callers rebuild fresh.
func (d *Deployment) Rewindable() bool { return !d.mutated && d.BatchTable() != nil }

// resetRunTelemetry re-establishes the observability state a fresh
// deployment would have: zeroed flush cursors and the deployments
// counter bumped once per lane — so a reused deployment's metric stream
// is indistinguishable from the fresh-populate path's.
func (d *Deployment) resetRunTelemetry() {
	tl := &d.telem
	if tl.sink == nil {
		return
	}
	tl.flushedOps, tl.flushedHits, tl.flMiss = 0, 0, 0
	for range d.lanes {
		tl.countDeployment(d.cfg.Engine)
	}
}
