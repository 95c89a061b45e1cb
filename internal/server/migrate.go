package server

import (
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Online migration (DESIGN.md §15). The static pipeline freezes one
// placement at Load; adaptive tiering revises it mid-run. The contract
// lives here — not in core — because the client's replay loop consumes
// it (core imports client, so core cannot be imported back): an
// EpochSource begins a run by handing out an EpochObserver, the client
// feeds the observer each epoch's access counts, and the observer
// answers with the Moves the deployment should apply before the next
// epoch. Migration is not free: ApplyMoves charges every migrated byte
// to the simulated clock at Config.MigrationCostPerByte, so an adaptive
// policy only wins when its placement gains outrun its copy traffic.

// Move asks for one dataset record to be served from a different tier.
type Move struct {
	Index int         // dataset record index
	To    memsim.Tier // destination tier
}

// EpochStats is what the replay loop observed during one epoch: per-record
// read and write counts (indexed by dataset record index) plus the
// placement in force while they were collected. The slices are owned by
// the replay loop and reused between epochs — observers must copy
// anything they keep.
type EpochStats struct {
	Epoch  int // 0-based epoch index
	Ops    int // requests served this epoch
	Reads  []int32
	Writes []int32
	Tiers  []memsim.Tier // current placement, indexed by record
}

// EpochObserver is one run's adaptive state: it receives each epoch's
// access stats and answers with the moves to apply before the next
// epoch. Returning nil keeps the placement; the returned slice is the
// observer's to reuse, so it is valid only until the next Observe.
// Observers are single-run, single-goroutine objects; a fresh one is
// issued per run by Begin.
type EpochObserver interface {
	Observe(EpochStats) []Move
}

// EpochSource starts adaptive runs. Begin is called once per measurement
// run with the workload about to be replayed and returns that run's
// observer; all mutable adaptive state must live on the observer, never
// on the source, so one source can serve many (even concurrent) runs.
type EpochSource interface {
	Begin(w *ycsb.Workload) (EpochObserver, error)
}

// MigrationResult accounts for one ApplyMoves call.
type MigrationResult struct {
	Moves         int     // records actually migrated
	Bytes         int64   // payload bytes copied between tiers
	CostNs        float64 // simulated time charged for the copy traffic
	SkippedBudget int     // moves dropped by Config.MigrationBudget
	SkippedFull   int     // moves dropped because the destination tier was full
}

// ApplyMoves migrates records between the two instances mid-run,
// advancing the simulated clock by Bytes × Config.MigrationCostPerByte
// nanoseconds. Demotions run before promotions so a swap never
// transiently overflows FastMem. No-op moves (record already on the
// requested tier) are free; moves past Config.MigrationBudget bytes per
// call or into a full tier are dropped and counted.
//
// The structural work — DelID/PutID against the quiesced engines — is
// untimed, exactly like Load: the explicit per-byte charge is the whole
// cost model for migration. LLC residency is left untouched; a migrated
// record keeps its cache state, since the copy moves it between memory
// nodes, not out of the cache.
//
// Migrating a record writes it to the destination tier whether or not
// the trace has since deleted it: a deleted record comes back live in
// the store, unless the engine refuses it. Not to the LLC, whose
// liveness is the trace's (llcstream.go): its reads stay "not found"
// there until the trace writes it again.
//
// A deployment that has migrated is permanently dirty for snapshot
// reuse: its store contents no longer match the post-Load snapshot, so
// ResetRun refuses and callers must rebuild fresh for the next run. Its
// cost table goes stale and is re-priced, skipping deleted records, when
// the next frame asks for it.
func (d *Deployment) ApplyMoves(moves []Move) MigrationResult {
	var res MigrationResult
	if len(moves) == 0 {
		return res
	}
	d.oneLane("ApplyMoves")
	for pass := 0; pass < 2; pass++ {
		for _, m := range moves {
			if (pass == 0) != (m.To == memsim.Slow) {
				continue
			}
			if m.Index < 0 || m.Index >= len(d.records) || d.tiers[m.Index] == m.To {
				continue
			}
			rec := &d.records[m.Index]
			size := int64(rec.Size)
			if d.cfg.MigrationBudget > 0 && res.Bytes+size > d.cfg.MigrationBudget {
				res.SkippedBudget++
				continue
			}
			if err := d.machine.Node(m.To).Alloc(size); err != nil {
				res.SkippedFull++
				continue
			}
			from := d.tiers[m.Index]
			d.instances[from].DelID(rec.Key, rec.ID)
			d.instances[from].TakePauseNs() // migration stalls are untimed, like Load
			d.machine.Node(from).Free(size)
			d.instances[m.To].PutID(rec.Key, rec.ID, kvstore.Sized(rec.Size))
			d.instances[m.To].TakePauseNs()
			d.tiers[m.Index] = m.To
			if d.nDead > 0 && d.dead[m.Index] {
				if d.cfg.Engine.stores(rec) {
					d.dead[m.Index] = false
					d.nDead--
				} else if d.missRows && d.table != nil {
					// Refused again: no journal names the record, so its
					// not-found row moves to the new tier here.
					d.fillMiss(d.table, m.Index)
					d.repricedRows[causeMigrate]++
				}
			}
			res.Moves++
			res.Bytes += size
		}
	}
	if res.Moves > 0 {
		d.mutated, d.stale = true, causeMigrate
		// Settle deferred structural work (rehash steps, node splits) the
		// migration writes queued, so post-migration traces are static
		// again — the same discipline Load applies.
		for i, br := range d.replayers {
			if br != nil {
				br.Quiesce()
				d.instances[i].TakePauseNs()
			}
		}
	}
	res.CostNs = float64(res.Bytes) * d.cfg.MigrationCostPerByte
	if res.CostNs > 0 {
		d.lanes[0].clock.Advance(simclock.FromNanos(res.CostNs))
	}
	return res
}

// RecordTiers exposes the live per-record placement (indexed by dataset
// record index). The returned slice is the deployment's own serving
// table — callers must not modify it.
func (d *Deployment) RecordTiers() []memsim.Tier { return d.tiers }

// AdaptiveSpec reports the configured epoch source and epoch length.
// Adaptive replay is active only when both are set: a nil source or
// EpochOps ≤ 0 keeps the legacy static path bit-exactly.
func (d *Deployment) AdaptiveSpec() (EpochSource, int) { return d.cfg.Adaptive, d.cfg.EpochOps }
