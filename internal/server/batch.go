package server

import (
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/simclock"
)

// Batched, table-driven replay kernel (DESIGN.md §12).
//
// After Load quiesces the engines, every operation on a resident key has
// a static trace: fixed pointer chases, fixed touched bytes, fixed
// payload size. BatchTable folds those constants through the pricing
// formula once per record — one precomputed pre-noise service time per
// (kind, LLC hit/miss) combination — and Serve replays whole blocks of
// requests against the flat table. The only state touched per request is
// the state that genuinely varies per request: the LLC hit bit, the
// noise RNG stream, the GC-pause accumulator and the simulated clock. No
// kvstore.Store interface call remains on the path.
//
// Bit-identity with the per-operation path is by construction: the table
// builder executes the exact float-operation sequence of price() on each
// record's static trace, and Serve consumes the same noise draws, the
// same LLC decisions in the same order.

// ReplayBlockOps is the number of requests a client serves per kernel
// call. It matches the per-op path's historical cancellation-poll stride
// (one ctx check every 4096 requests), so hoisting the poll to block
// granularity preserves the cancellation latency bound documented there.
const ReplayBlockOps = 4096

// opCost is one record's precomputed static service-time components:
// the full pre-noise service time (CPU + memory, MLP and write penalty
// applied) for each op kind and LLC outcome, plus the constants the
// kernel needs per access.
type opCost struct {
	ns   [4]float64 // pre-noise service time, indexed by costSlot(kind, hit)
	size int32      // payload bytes charged to the GC model
	tier uint8      // serving instance, for pause routing
}

// costSlot indexes opCost.ns by a kernel request's kind (Read or Write)
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

// pauseState is the kernel-side mirror of one instance's
// kvstore.PauseModel, with the post-load accumulator snapshot kept for
// ResetRun.
type pauseState struct {
	budget, perOp int64
	pauseNs       float64
	accum, reset  int64
}

// ReplayTable is a deployment's batched-replay state: the per-record
// cost table, the per-tier pause models, and the block-sized scratch
// buffers — the latency buffer handed to callers and the two arrays
// Serve's stages communicate through. It is bound to the deployment
// that built it and shares its single-threaded discipline.
type ReplayTable struct {
	d     *Deployment
	costs []opCost
	pause [2]pauseState // indexed by memsim.Tier
	lat   [ReplayBlockOps]simclock.Duration
	ns    [ReplayBlockOps]float64 // service time: pre-noise after stage 1, noised after stage 2
	hit   [ReplayBlockOps]uint8   // stage 1's LLC outcome, 1 = hit
}

// Block returns the table's block-sized latency scratch buffer for Serve
// calls. The buffer is reused across blocks and runs; its contents are
// valid only until the next Serve.
func (t *ReplayTable) Block() []simclock.Duration { return t.lat[:] }

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
// Replay loops ask FrameTable, per frame, instead: per-op requests may
// interleave with Serve only under its pause handshake.
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
// hash table resize, any slabkv or treekv insert or remove). Both journals are
// drained on every call, so each covers exactly the changes since the
// table was last priced. The pause mirrors are snapshotted from the
// engines, which hold the current accumulators at every event that
// leaves the table stale. The table's identity and its latency scratch
// survive a refresh. Rows of deleted records are skipped: the engines
// hold no trace for them, and FrameTable never hands out the table for a
// frame touching one.
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
	var brs [2]kvstore.BatchReplayer
	for i, inst := range d.instances {
		br, ok := inst.(kvstore.BatchReplayer)
		if !ok {
			return
		}
		brs[i] = br
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
			t = &ReplayTable{d: d, costs: make([]opCost, len(d.records))}
		}
		d.repricedRows[cause] += int64(len(d.records) - d.nDead)
		for i := range d.records {
			if !d.fillCost(t, i, brs) {
				return
			}
		}
	}
	for i, br := range brs {
		pm := br.ReplayPauses()
		t.pause[i] = pauseState{budget: pm.BudgetBytes, perOp: pm.PerOpBytes,
			pauseNs: pm.PauseNs, accum: pm.Accum, reset: pm.Accum}
	}
	d.table, d.perOp = t, false
}

// DropBatchTable latches the batched kernel off for the rest of the
// deployment's life, as DisableBatchReplay would have from the start:
// the engines take the pause accounting over and every later frame goes
// per-op. It exists for regression tests that need to force
// the mid-run per-op fallback deterministically.
func (d *Deployment) DropBatchTable() {
	d.enginesTakePauses()
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
// static trace — the per-record half of reprice. A deleted record is
// skipped. It returns false when the record's trace is not static.
func (d *Deployment) fillCost(t *ReplayTable, i int, brs [2]kvstore.BatchReplayer) bool {
	if d.nDead > 0 && d.dead[i] {
		return true
	}
	rec := &d.records[i]
	tier := d.tiers[i]
	getChases, putChases, ok := brs[tier].StaticTrace(rec.Key, rec.ID)
	if !ok {
		return false
	}
	c := &t.costs[i]
	c.size = int32(rec.Size)
	c.tier = uint8(tier)

	readTouched := kvstore.Amplify(rec.Size, d.profile.ReadAmplification)
	readVB := llcFootprint(uint8(kvstore.Read), rec.Size, d.profile.ReadAmplification)
	writeTouched := kvstore.Amplify(rec.Size, d.profile.WriteAmplification)

	r, w := uint8(kvstore.Read), uint8(kvstore.Write)
	node := &d.machine.Node(tier).Params
	c.ns[costSlot(r, 1)] = d.staticCost(kvstore.Read, getChases, readTouched, readVB, &memsim.LLCParams)
	c.ns[costSlot(r, 0)] = d.staticCost(kvstore.Read, getChases, readTouched, readVB, node)
	c.ns[costSlot(w, 1)] = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, &memsim.LLCParams)
	c.ns[costSlot(w, 0)] = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, node)
	return true
}

// staticCost folds a static trace through the pricing formula, in the
// exact operation order of price() so the precomputed sum is bit-equal
// to what the live path would have produced: transfer cost (with the
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
// lat, which must hold len(keys) entries (Block does). It returns the
// number of requests served: len(keys) normally, or fewer when maxClock
// (an absolute simulated-time bound, 0 = none) was exceeded — the
// request that crossed the bound is served and counted, matching the
// per-op path's post-op budget check.
//
// The block passes through three stages, each owning one slice of the
// per-request state:
//
//  1. LLC: take every request's hit bit — from the attached stream
//     (llcstream.go), else from the private walker — into hit, and the
//     cost it selects into ns.
//  2. noise: multiply the block by the noise stream (Noise.Scale).
//  3. clock: apply the pause mirror, round to a latency, advance the
//     clock, count the hits and check maxClock.
//
// Stages 1 and 2 run over the whole block before stage 3 can discover
// a cut, so a Serve that returns short has advanced the private walker
// and the noise stream past the requests it served. Everything that is
// reported — clock, op count, latencies, pause accumulators, and the
// LLC hit/miss tallies, which count the served prefix only — is exact
// for the served requests, but the deployment cannot resume: after a
// short Serve the only legal next steps are ResetRun or discarding the
// deployment. (Every client treats a short Serve as the run's timeout
// and returns at once.)
//
// With a stream attached the block must lie within what the stream has
// published: the client's AwaitFrame ensures it, and Serve panics
// otherwise.
func (t *ReplayTable) Serve(keys []uint32, kinds []uint8, maxClock simclock.Duration, lat []simclock.Duration) int {
	d := t.d
	ns, hit := t.ns[:len(keys)], t.hit[:len(keys)]
	s, w := d.llcs, (*llcWalker)(nil)
	if s != nil {
		off := d.llcOff
		if !s.covers(off + len(keys)) {
			panic("server: Serve past the attached LLC stream's published prefix")
		}
		for i, k := range keys {
			h := s.bit(off + i)
			ns[i] = t.costs[k].ns[costSlot(kinds[i], h)]
			hit[i] = h
		}
	} else {
		w = d.privateLLC() // nil without an LLC model: every request misses
		for i, k := range keys {
			var h uint8
			if w != nil && w.step(k, kinds[i]) {
				h = 1
			}
			ns[i] = t.costs[k].ns[costSlot(kinds[i], h)]
			hit[i] = h
		}
	}

	d.noise.Scale(ns)

	start := d.clock.Now()
	now := start
	pausing := t.pause[memsim.Fast].budget > 0 || t.pause[memsim.Slow].budget > 0
	served, hits := len(ns), 0
	for i, serviceNs := range ns {
		if pausing {
			// Mirror of TakePauseNs: the engine's own GC accounting would
			// charge this op's bytes and stall when the budget is crossed.
			c := &t.costs[keys[i]]
			if ps := &t.pause[c.tier]; ps.budget > 0 {
				ps.accum += int64(c.size) + ps.perOp
				if ps.accum >= ps.budget {
					ps.accum = 0
					serviceNs += ps.pauseNs
				}
			}
		}
		l := simclock.FromNanos(serviceNs)
		now += l
		lat[i] = l
		hits += int(hit[i])
		if maxClock > 0 && now > maxClock {
			served = i + 1
			break
		}
	}
	d.clock.Advance(now - start)
	d.ops += served

	if s != nil || w != nil {
		d.tallyLLC(hits, served)
	}
	return served
}

// ResetRun rewinds a batch-capable deployment to its post-Load state
// under a new measurement seed — the snapshot/reset that lets repeated
// runs (ExecuteMean, Session.Compare) load the populated store once
// instead of re-populating per run. It resets the clock, op counter,
// private LLC walker and LLC tallies, detaches any LLC stream, re-seeds
// the noise stream, and restores the kernel's pause accumulators to
// their post-load snapshot; telemetry parity with a fresh deployment is
// kept by re-counting the deployment.
//
// It returns false — leaving the deployment untouched — when the
// deployment is not Rewindable.
func (d *Deployment) ResetRun(seed int64) bool {
	if !d.Rewindable() {
		return false
	}
	t := d.table
	d.cfg.Seed = seed
	d.clock.Reset()
	d.ops = 0
	d.noise.reseed(seed)
	for i := range t.pause {
		t.pause[i].accum = t.pause[i].reset
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
// counter bumped — so a reused deployment's metric stream is
// indistinguishable from the fresh-populate path's.
func (d *Deployment) resetRunTelemetry() {
	tl := &d.telem
	if tl.sink == nil {
		return
	}
	tl.flushedOps, tl.flushedHits, tl.flMiss = 0, 0, 0
	tl.sink.Counter(obs.Name("mnemo_server_deployments_total", "engine", d.cfg.Engine.String())).Inc()
}
