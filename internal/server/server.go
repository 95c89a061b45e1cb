// Package server assembles the paper's experimental deployment: two
// instances of one key-value store engine, each bound to a memory node of
// the emulated hybrid machine (the paper uses numactl to bind one server
// process to FastMem and one to SlowMem), plus the service-time model
// that turns each operation's memory traffic into simulated time.
//
// Service time of one request (DESIGN.md §5):
//
//	t = (cpuBase + cpuPerByte·valueBytes + memNs/MLP) · noise + pause
//
// where memNs prices the operation's pointer chases and (amplified)
// touched bytes against the tier that holds the record — or against the
// LLC when the record is cache-resident — and writes pay the engine's
// WritePenalty on the byte traffic.
package server

import (
	"fmt"
	"math"

	"mnemo/internal/kvstore"
	"mnemo/internal/kvstore/hashkv"
	"mnemo/internal/kvstore/slabkv"
	"mnemo/internal/kvstore/treekv"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/shard"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Engine selects a key-value store implementation.
type Engine int

// The three engines of the paper's evaluation.
const (
	RedisLike Engine = iota
	MemcachedLike
	DynamoLike
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case RedisLike:
		return "redislike"
	case MemcachedLike:
		return "memcachedlike"
	case DynamoLike:
		return "dynamolike"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Engines lists all engines in evaluation order.
func Engines() []Engine { return []Engine{RedisLike, MemcachedLike, DynamoLike} }

// EngineByName resolves an engine from its name.
func EngineByName(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.String() == name {
			return e, true
		}
	}
	return 0, false
}

// newStore instantiates one server process of the engine.
func (e Engine) newStore() kvstore.Store {
	switch e {
	case RedisLike:
		return hashkv.New()
	case MemcachedLike:
		return slabkv.New(0)
	case DynamoLike:
		return treekv.New()
	default:
		panic(fmt.Sprintf("server: unknown engine %d", int(e)))
	}
}

// stores reports whether the engine stores the record at all: slabkv
// refuses an item too large for its largest chunk, at Load and at every
// later Write, so such a record is never live.
func (e Engine) stores(rec *ycsb.Record) bool {
	return e != MemcachedLike || slabkv.Fits(rec.Key, rec.Size)
}

// Profile returns the engine's performance profile.
func (e Engine) Profile() kvstore.EngineProfile {
	switch e {
	case RedisLike:
		return hashkv.Profile
	case MemcachedLike:
		return slabkv.Profile
	case DynamoLike:
		return treekv.Profile
	default:
		panic(fmt.Sprintf("server: unknown engine %d", int(e)))
	}
}

// Config parameterizes a deployment.
type Config struct {
	Engine     Engine
	Machine    memsim.Config
	NoiseSigma float64
	Seed       int64
	// Obs receives the deployment's telemetry (per-engine op counters,
	// LLC hit/miss). nil — the zero value — records nothing and adds no
	// per-request work beyond an inert branch, so the replay fast path
	// stays allocation-free.
	Obs *obs.Sink
	// DisableBatchReplay makes the replay loop serve every frame request
	// by request (BatchTable and FrameTable return nil) even when the
	// engine supports the batched kernel — the loop's only fork selector.
	// Both paths read the same LLC hit bits, so it selects a pricing path
	// only. It exists as the reference knob for the golden equivalence
	// tests and benchmarks; the two paths are bit-identical, so there is
	// no reason to set it in production.
	DisableBatchReplay bool
	// Shards splits the deployment into a consistent-hash cluster of N
	// independent fast+slow pairs (DESIGN.md §13). Every measurement
	// runs on a ShardedDeployment of max(Shards, 1) members, so 0 and 1
	// both mean one single deployment.
	Shards int
	// EpochOps is the adaptive-replay epoch length in requests; the
	// client re-consults Adaptive after every EpochOps served requests.
	// 0 — the zero value — disables epochs and keeps the static replay
	// path bit-identical (DESIGN.md §15).
	EpochOps int
	// MigrationCostPerByte is the simulated-time charge, in nanoseconds
	// per payload byte, for records ApplyMoves copies between tiers.
	// 0 makes migration free on the clock (structural work is untimed).
	MigrationCostPerByte float64
	// MigrationBudget caps the payload bytes one ApplyMoves call may
	// migrate; excess moves are dropped and counted. 0 means unlimited.
	MigrationBudget int64
	// Adaptive supplies per-run epoch observers for online migration.
	// nil — the zero value — disables adaptive replay.
	Adaptive EpochSource
}

// DefaultConfig returns the Table I machine with default noise.
func DefaultConfig(e Engine, seed int64) Config {
	return Config{Engine: e, Machine: memsim.DefaultConfig(), NoiseSigma: DefaultNoiseSigma, Seed: seed}
}

// Static returns the configuration with the adaptive knobs (Adaptive,
// EpochOps) stripped: the run keeps its initial placement for the whole
// trace, on the static replay path.
func (c Config) Static() Config {
	c.Adaptive, c.EpochOps = nil, 0
	return c
}

// Validate rejects malformed run knobs with errors naming the field. Zero
// values are the defaults and always pass.
func (c Config) Validate() error {
	if err := validateNoiseSigma(c.NoiseSigma); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > shard.MaxShards {
		return fmt.Errorf("server: Shards %d outside [0,%d] (0 and 1 mean a single deployment)", c.Shards, shard.MaxShards)
	}
	if c.EpochOps < 0 {
		return fmt.Errorf("server: EpochOps %d must be non-negative (0 disables adaptive replay)", c.EpochOps)
	}
	if !(c.MigrationCostPerByte >= 0) || math.IsInf(c.MigrationCostPerByte, 1) {
		return fmt.Errorf("server: MigrationCostPerByte %v ns/byte must be a finite non-negative number (0 makes migration free)", c.MigrationCostPerByte)
	}
	if c.MigrationBudget < 0 {
		return fmt.Errorf("server: MigrationBudget %d bytes must be non-negative (0 means unlimited)", c.MigrationBudget)
	}
	return nil
}

// Deployment is two engine instances on the hybrid machine with a
// placement routing keys between them, priced on one lane or more
// (lanes.go).
type Deployment struct {
	cfg       Config
	machine   *memsim.Machine
	instances [2]kvstore.Store // indexed by memsim.Tier
	// replayers holds each instance's batched-replay capability, nil
	// where the engine has none.
	replayers [2]kvstore.BatchReplayer
	placement Placement
	profile   kvstore.EngineProfile

	// lanes are the deployment's priced views, lane 0 its own (lanes.go),
	// and bufs the stage-1 frame buffers, built by Load.
	lanes []*lane
	bufs  [FrameBuffers]*Frame

	// records and tiers are the index-addressed request path, built by
	// Load: records aliases the loaded dataset and tiers[i] caches the
	// placement decision for record i, so DoIndex resolves a request
	// with two slice loads instead of a map lookup plus a key hash.
	records []ycsb.Record
	tiers   []memsim.Tier
	// rows resolves a (key, KeyID) pair to its record index for the
	// journal-driven re-price (batch.go): an open-addressed
	// table of record index + 1 (0 = empty slot), probed linearly from
	// the KeyID. Built on first use, dropped by Load.
	rows []int32

	// ops is the served-request count, flushed to the sink by FlushObs
	// once per lane.
	ops int

	// telem carries the deployment's pre-resolved observability handles
	// (all nil without a configured sink; see obs.go).
	telem deployTelemetry

	// table is the batched-replay cost table and stale the reason it must
	// be priced again before its next use (batch.go): Load, a migration
	// and a structural per-op request each leave it stale, and BatchTable
	// re-prices lazily. A nil table that is not stale is the kernel
	// latched off until the next of those events.
	table *ReplayTable
	stale repriceCause
	// pausing reports that the engine keeps a pause model
	// (kvstore.BatchReplayer.PauseAccum), which the kernel charges per
	// request; pauseReset holds each instance's accumulator as Load left
	// it, for ResetRun to restore.
	pausing    bool
	pauseReset [2]int64

	// mutated latches once the store diverges from its post-Load
	// snapshot — a migration, or any frame served per-op — after which
	// ResetRun refuses to rewind. Load clears it.
	mutated bool
	// dead marks the dataset records the store does not hold (nDead of
	// them): those the engine refused at Load (Engine.stores), which
	// stay dead, and those a Delete removed and no Write has re-inserted
	// since; nil until the first. A Write to one is served per-op: a
	// structural re-insert, or a Write the engine refuses again. A Read of
	// one is served by the kernel when missRows is set — both engine
	// instances promise a constant miss trace (kvstore.BatchReplayer.
	// MissTrace), missChases chases on each tier, and the engine is not
	// pausing (a treekv miss charges the GC model) — and priced from the
	// record's not-found row; otherwise its row is not priced and the
	// Read goes per-op.
	dead       []bool
	nDead      int
	missRows   bool
	missChases [2]int

	// relaid collects the rows the engines' relayout journals report for
	// a re-price (batch.go), each once: relaidGen[i] == relaidStamp marks
	// row i collected by the current drain. noteRelaid is the callback
	// that appends to it, made once so a warm re-price allocates nothing.
	relaid      []int32
	relaidGen   []uint32
	relaidStamp uint32
	noteRelaid  func(key string, id uint64)

	// llc is the private LLC walker, which prices every request of a run
	// with no stream attached, built on first use (privateLLC); llcs is
	// the shared LLC hit stream the current run is priced from instead
	// (llcstream.go). llcOff counts the requests priced since Load or
	// ResetRun — the stream's read offset — and llcHits and llcMisses
	// split them by outcome.
	llc                *llcWalker
	llcs               *llcStream
	llcOff             int
	llcHits, llcMisses int64
	// shardMember marks a member of a cluster of more than one shard,
	// which replays a shard's sub-trace.
	shardMember bool

	// frames, reqs, repriced and repricedRows tally, since the last
	// FlushObs, the frames FrameTable routed to each path, the requests
	// each path served, the table re-prices by cause and the rows those
	// re-prices probed; streamReqs the requests priced from an LLC
	// stream, and streams the share streams this deployment's runs
	// started or took from the workload's memo, by source. frameMix
	// collects the paths the current frame's runs took (bit 1<<path),
	// until FrameTable decides its last run.
	frames       [numFramePaths]int64
	reqs         [2]int64 // indexed by pathKernel and pathPerOp
	frameMix     uint8
	repriced     [numRepriceCauses]int64
	repricedRows [numRepriceCauses]int64
	streamReqs   int64
	streams      [numStreamSources]int64
}

// NewDeployment builds an empty deployment with an AllFast placement.
func NewDeployment(cfg Config) *Deployment {
	d := &Deployment{
		cfg:       cfg,
		machine:   memsim.NewMachine(cfg.Machine),
		placement: AllFast(),
		profile:   cfg.Engine.Profile(),
	}
	d.lanes = []*lane{{noise: NewNoise(cfg.NoiseSigma, cfg.Seed), machine: d.machine}}
	d.instances[memsim.Fast] = cfg.Engine.newStore()
	d.instances[memsim.Slow] = cfg.Engine.newStore()
	for i, inst := range d.instances {
		d.replayers[i], _ = inst.(kvstore.BatchReplayer)
	}
	if d.replayers[0] != nil && d.replayers[1] != nil {
		_, d.pausing = d.replayers[0].PauseAccum() // both run one engine
		d.missRows = !d.pausing
		for i, br := range d.replayers {
			var ok bool
			d.missChases[i], ok = br.MissTrace()
			d.missRows = d.missRows && ok
		}
	}
	d.initTelemetry()
	return d
}

// Machine exposes the underlying memory machine (for calibration and
// inspection).
func (d *Deployment) Machine() *memsim.Machine { return d.machine }

// Clock returns lane 0's simulated time.
func (d *Deployment) Clock() simclock.Duration { return d.lanes[0].clock.Now() }

// Engine reports the deployed engine.
func (d *Deployment) Engine() Engine { return d.cfg.Engine }

// Placement returns the active placement.
func (d *Deployment) Placement() Placement { return d.placement }

// Instance returns the store bound to a tier.
func (d *Deployment) Instance(t memsim.Tier) kvstore.Store { return d.instances[t] }

// Load populates the deployment from a dataset under the given placement.
// Loading is the untimed setup phase (the paper's YCSB load stage): it
// neither advances the clock nor touches the LLC model, which starts
// cold. Node capacity is accounted per lane, lane by lane; the first
// lane whose tier overflows a configured capacity fails the Load with a
// *LaneError. A deployment with more than one lane needs a placement
// that puts every record on one tier.
//
// Every path identifies a record to the LLC walker by its dataset index.
func (d *Deployment) Load(ds ycsb.Dataset, p Placement) error {
	if err := d.place(ds, p); err != nil {
		return err
	}
	for k := range d.lanes {
		if err := d.allocLane(k); err != nil {
			return err
		}
	}
	d.populate()
	return nil
}

// place binds the deployment to a dataset under a placement: the
// record table and the per-record tiers.
func (d *Deployment) place(ds ycsb.Dataset, p Placement) error {
	d.placement = p
	d.records = ds.Records
	d.rows = nil
	d.tiers = make([]memsim.Tier, len(ds.Records))
	for i := range ds.Records {
		d.tiers[i] = p.TierOfIndex(i)
		if len(d.lanes) > 1 && d.tiers[i] != d.tiers[0] {
			return fmt.Errorf("server: a deployment of %d lanes needs a uniform placement", len(d.lanes))
		}
	}
	return nil
}

// populate writes the placed dataset into the engine instances and
// resets the replay state to its post-Load snapshot.
func (d *Deployment) populate() {
	for i, rec := range d.records {
		tier := d.tiers[i]
		d.instances[tier].PutID(rec.Key, rec.ID, kvstore.Sized(rec.Size))
		d.instances[tier].TakePauseNs() // setup-phase stalls are not timed
	}
	// Quiesce deferred background work (incremental rehash, pending node
	// splits) as part of the untimed setup phase, so the steady-state
	// request path starts structurally settled — the property the batched
	// replay kernel's static cost table relies on, applied to every
	// deployment so the per-op and batched paths price the same store.
	// The first table is priced whole, so the relayout journals start
	// empty: a frame can ask whether re-pricing after its structural
	// requests would be bounded (FrameTable) before any table exists.
	for i, br := range d.replayers {
		if br != nil {
			br.Quiesce()
			d.instances[i].TakePauseNs()
			br.Relaid(func(string, uint64) {})
			d.pauseReset[i], _ = br.PauseAccum()
		}
	}
	d.table, d.stale = nil, causeLoad
	d.mutated = false
	d.dead, d.nDead = nil, 0
	for i := range d.records {
		if !d.cfg.Engine.stores(&d.records[i]) {
			d.markDead(i)
		}
	}
	d.frameMix = 0
	d.llc, d.llcs, d.llcOff, d.llcHits, d.llcMisses = nil, nil, 0, 0, 0
	d.buildFrames()
}

// Result reports how one request was served.
type Result struct {
	Tier    memsim.Tier
	Kind    kvstore.OpKind
	Latency simclock.Duration
	Found   bool
	Hit     bool // LLC hit
}

// row resolves a key and its KeyID to the dataset record index, building
// the rows table on first use.
func (d *Deployment) row(key string, id uint64) (int, bool) {
	if d.rows == nil {
		size := 2
		for size < len(d.records)+len(d.records)/2 { // load factor ≤ 2/3
			size <<= 1
		}
		d.rows = make([]int32, size)
		mask := uint64(size - 1)
		for i := range d.records {
			h := d.records[i].ID & mask
			for d.rows[h] != 0 {
				h = (h + 1) & mask
			}
			d.rows[h] = int32(i + 1)
		}
	}
	mask := uint64(len(d.rows) - 1)
	for h := id & mask; d.rows[h] != 0; h = (h + 1) & mask {
		if i := int(d.rows[h] - 1); d.records[i].ID == id && d.records[i].Key == key {
			return i, true
		}
	}
	return 0, false
}

// DoIndex executes one request addressed by dataset record index — the
// per-op path for a single request (the replay loop serves per-op runs
// through ServeRun). The record's tier comes from the table Load built
// and its identity from the dataset's cached KeyID, so no per-request
// string work remains. Writes store the record's dataset size (the
// trace's record sizes are fixed for the workload's lifetime). DoIndex
// panics if the deployment has not been loaded, has more than one lane,
// or idx is out of range.
func (d *Deployment) DoIndex(idx int, kind kvstore.OpKind) Result {
	d.oneLane("DoIndex")
	f := d.Frame(0)
	f.pauses = f.pauses[:0]
	keys, kinds := [1]uint32{uint32(idx)}, [1]uint8{uint8(kind)}
	found := d.stage1PerOp(f, keys[:], kinds[:], 0, 1)
	d.finishRun(f, 0, 1, pathPerOp, f.lat[0])
	return Result{Tier: d.tiers[idx], Kind: kind, Latency: f.lat[0][0], Found: found, Hit: f.hit[0] == 1}
}

// noteStructural tracks the deleted-record set for a non-read request
// on dataset record idx. A Delete of a live record and a Write that
// re-inserts a deleted one change store structure (hash chains, tree
// nodes), which can change the static trace of records the request never
// named: the cost table goes stale and the store no longer matches its
// post-Load snapshot. An overwrite of a live record changes neither, nor
// does a Write the engine refuses. A record's not-found row depends on no
// store state, so a Delete writes it into the table at once; the
// re-price that re-inserts the record finds it in the engine's journal.
// A table already stale keeps its cause: a Delete before the first
// re-price leaves the whole-table build tallied as the load's.
func (d *Deployment) noteStructural(idx int, kind kvstore.OpKind) {
	if kind == kvstore.Delete {
		if !d.markDead(idx) {
			return
		}
		if d.missRows && d.table != nil {
			d.fillMiss(d.table, idx)
			d.repricedRows[causeStructural]++
		}
	} else {
		if d.nDead == 0 || !d.dead[idx] || !d.cfg.Engine.stores(&d.records[idx]) {
			return
		}
		d.dead[idx] = false
		d.nDead--
	}
	d.mutated = true
	if d.stale == priced {
		d.stale = causeStructural
	}
}

// markDead adds record idx to the deleted-record set and reports whether
// it was live.
func (d *Deployment) markDead(idx int) bool {
	if d.dead == nil {
		d.dead = make([]bool, len(d.records))
	}
	if d.dead[idx] {
		return false
	}
	d.dead[idx] = true
	d.nDead++
	return true
}

// valueBytes recovers the record's actual payload size from an operation
// trace: the size the CPU handles once (serialization and copy), and the
// footprint the LLC walker gives the request. Engine traces report Touched
// = payload × amplification, so the engine's amplification factor is
// divided back out.
func (d *Deployment) valueBytes(tr kvstore.OpTrace, writeSize int) int {
	if tr.Kind == kvstore.Write {
		return writeSize
	}
	if !tr.Found {
		return 0
	}
	amp := d.profile.ReadAmplification
	if amp <= 1 {
		// Unamplified engines (hash, slab) touch exactly the payload;
		// dividing by 1.0 is the identity, so skip the float round trip.
		return tr.Touched
	}
	return int(float64(tr.Touched) / amp)
}
