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
	// independent fast+slow pairs (DESIGN.md §13). 0 keeps the legacy
	// single deployment; ≥ 1 routes execution through
	// ShardedDeployment (Shards=1 is a one-shard cluster, bit-identical
	// to the single deployment — the golden equivalence anchor).
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

// Validate rejects malformed run knobs with errors naming the field. Zero
// values are the defaults and always pass.
func (c Config) Validate() error {
	if err := validateNoiseSigma(c.NoiseSigma); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > shard.MaxShards {
		return fmt.Errorf("server: Shards %d outside [0,%d] (0 means a single deployment)", c.Shards, shard.MaxShards)
	}
	if c.EpochOps < 0 {
		return fmt.Errorf("server: EpochOps %d must be non-negative (0 disables adaptive replay)", c.EpochOps)
	}
	if c.MigrationCostPerByte < 0 {
		return fmt.Errorf("server: MigrationCostPerByte %v ns/byte must be non-negative", c.MigrationCostPerByte)
	}
	if c.MigrationBudget < 0 {
		return fmt.Errorf("server: MigrationBudget %d bytes must be non-negative (0 means unlimited)", c.MigrationBudget)
	}
	return nil
}

// Deployment is two engine instances on the hybrid machine with a
// placement routing keys between them.
type Deployment struct {
	cfg       Config
	machine   *memsim.Machine
	clock     simclock.Clock
	instances [2]kvstore.Store // indexed by memsim.Tier
	placement Placement
	noise     *Noise
	profile   kvstore.EngineProfile

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

	// ops is the served-request count, flushed to the sink by FlushObs.
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
	// perOp records that the engines were last driven directly (a per-op
	// frame, a migration), so they — not the kernel's mirror — hold the
	// current pause accumulators (frame.go).
	perOp bool

	// mutated latches once the store diverges from its post-Load
	// snapshot — a migration, or any frame served per-op — after which
	// ResetRun refuses to rewind. Load clears it.
	mutated bool
	// dead marks the dataset records a Delete removed and no Write has
	// re-inserted since (nDead of them); nil until the first Delete. Their
	// cost rows are not priced and frames touching them go per-op.
	dead  []bool
	nDead int

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

	// frames, repriced and repricedRows tally, since the last FlushObs,
	// the frames FrameTable routed to each path, the table re-prices by
	// cause and the rows those re-prices probed; streamReqs the requests
	// priced from an LLC stream.
	frames       [2]int64
	repriced     [numRepriceCauses]int64
	repricedRows [numRepriceCauses]int64
	streamReqs   int64
}

// NewDeployment builds an empty deployment with an AllFast placement.
func NewDeployment(cfg Config) *Deployment {
	d := &Deployment{
		cfg:       cfg,
		machine:   memsim.NewMachine(cfg.Machine),
		placement: AllFast(),
		noise:     NewNoise(cfg.NoiseSigma, cfg.Seed),
		profile:   cfg.Engine.Profile(),
	}
	d.instances[memsim.Fast] = cfg.Engine.newStore()
	d.instances[memsim.Slow] = cfg.Engine.newStore()
	d.initTelemetry()
	return d
}

// Machine exposes the underlying memory machine (for calibration and
// inspection).
func (d *Deployment) Machine() *memsim.Machine { return d.machine }

// Clock returns the current simulated time.
func (d *Deployment) Clock() simclock.Duration { return d.clock.Now() }

// Engine reports the deployed engine.
func (d *Deployment) Engine() Engine { return d.cfg.Engine }

// Placement returns the active placement.
func (d *Deployment) Placement() Placement { return d.placement }

// Instance returns the store bound to a tier.
func (d *Deployment) Instance(t memsim.Tier) kvstore.Store { return d.instances[t] }

// Load populates the deployment from a dataset under the given placement.
// Loading is the untimed setup phase (the paper's YCSB load stage): it
// neither advances the clock nor touches the LLC model, which starts
// cold. Node capacity is accounted; an error is returned if a tier
// overflows a configured capacity.
//
// Every path identifies a record to the LLC walker by its dataset index.
func (d *Deployment) Load(ds ycsb.Dataset, p Placement) error {
	d.placement = p
	d.records = ds.Records
	d.rows = nil
	d.tiers = make([]memsim.Tier, len(ds.Records))
	for i, rec := range ds.Records {
		tier := p.TierOfIndex(i)
		d.tiers[i] = tier
		if err := d.machine.Node(tier).Alloc(int64(rec.Size)); err != nil {
			return fmt.Errorf("server: loading %q: %w", rec.Key, err)
		}
		d.instances[tier].PutID(rec.Key, rec.ID, kvstore.Sized(rec.Size))
		d.instances[tier].TakePauseNs() // setup-phase stalls are not timed
	}
	// Quiesce deferred background work (incremental rehash, pending node
	// splits) as part of the untimed setup phase, so the steady-state
	// request path starts structurally settled — the property the batched
	// replay kernel's static cost table relies on, applied to every
	// deployment so the per-op and batched paths price the same store.
	for _, inst := range d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			br.Quiesce()
			inst.TakePauseNs()
		}
	}
	d.table, d.stale = nil, causeLoad
	d.mutated = false
	d.dead, d.nDead = nil, 0
	d.llc, d.llcs, d.llcOff, d.llcHits, d.llcMisses = nil, nil, 0, 0, 0
	return nil
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
// replay fast path. The record's tier comes from the table Load built
// and its identity from the dataset's cached KeyID, so no per-request
// string work remains. Writes store the record's dataset size (the
// trace's record sizes are fixed for the workload's lifetime). DoIndex
// panics if the deployment has not been loaded or idx is out of range.
func (d *Deployment) DoIndex(idx int, kind kvstore.OpKind) Result {
	rec := &d.records[idx]
	if kind != kvstore.Read {
		d.noteStructural(idx, kind)
	}
	tier := d.tiers[idx]
	st := d.instances[tier]
	var tr kvstore.OpTrace
	switch kind {
	case kvstore.Read:
		_, tr = st.GetID(rec.Key, rec.ID)
	case kvstore.Write:
		tr = st.PutID(rec.Key, rec.ID, kvstore.Value{Size: rec.Size})
	case kvstore.Delete:
		tr = st.DelID(rec.Key, rec.ID)
	default:
		panic(fmt.Sprintf("server: unknown op kind %v", kind))
	}
	return d.price(tier, st, kind, tr, rec.Size, d.llcHit(uint32(idx), kind))
}

// noteStructural tracks the deleted-record set for a non-read request
// on dataset record idx. A Delete of a live record and a Write that
// re-inserts a deleted one change store structure (hash chains, tree
// nodes), which can change the static trace of records the request never
// named: the cost table goes stale and the store no longer matches its
// post-Load snapshot. An overwrite of a live record changes neither.
func (d *Deployment) noteStructural(idx int, kind kvstore.OpKind) {
	if kind == kvstore.Delete {
		if d.dead == nil {
			d.dead = make([]bool, len(d.records))
		}
		if d.dead[idx] {
			return
		}
		d.dead[idx] = true
		d.nDead++
	} else {
		if d.nDead == 0 || !d.dead[idx] {
			return
		}
		d.dead[idx] = false
		d.nDead--
	}
	d.mutated = true
	d.stale = causeStructural
}

// price turns an operation trace into simulated service time and
// advances the clock. hit is the request's LLC outcome (llcHit).
func (d *Deployment) price(tier memsim.Tier, st kvstore.Store, kind kvstore.OpKind, tr kvstore.OpTrace, size int, hit bool) Result {
	var medium *memsim.NodeParams
	if hit {
		medium = &memsim.LLCParams
	} else {
		medium = &d.machine.Node(tier).Params
	}
	transferNs := medium.TransferNs(tr.Touched)
	if kind == kvstore.Write {
		transferNs *= d.profile.WritePenalty
	}
	memNs := medium.ChaseNs(tr.Chases) + transferNs
	if mlp := d.profile.MLP; mlp != 1 {
		memNs /= mlp
	}

	cpuNs := d.profile.CPUBaseNs + d.profile.CPUPerByteNs*float64(d.valueBytes(tr, size))
	// The conversion rounds the product before the pause is added, so a
	// platform that fuses multiply-add cannot round this path differently
	// from the batched kernel, which applies the two in separate stages.
	serviceNs := float64((cpuNs+memNs)*d.noise.Factor()) + st.TakePauseNs()
	d.ops++

	lat := simclock.FromNanos(serviceNs)
	d.clock.Advance(lat)
	return Result{Tier: tier, Kind: kind, Latency: lat, Found: tr.Found, Hit: hit}
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
