package client

import (
	"context"
	"fmt"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Adaptive (epoch-chunked) replay — DESIGN.md §15.
//
// The trace is served in epoch-sized chunks; after each non-final chunk
// the run's EpochObserver receives the epoch's per-record access counts
// and may answer with migrations, which the deployment applies — and
// charges to the simulated clock — before the next chunk starts. Epoch
// boundaries are rounded up to the replay block size so the chunked run
// reuses the existing 4096-op block structure (one ctx poll and one
// budget check discipline per block, unchanged).
//
// The final chunk is served without a trailing Observe: no requests
// remain to recoup a migration, so consulting the policy there could
// only burn simulated time. Budget semantics are global to the run —
// migration cost counts against RunTimeout exactly like request service
// time, and a chunked run that trips the budget reports the same
// run-global request index a monolithic run would.

// epochTelemetry accumulates one adaptive run's migration accounting,
// folded into RunStats by RunCtx.
type epochTelemetry struct {
	epochs  int
	moves   int
	bytes   int64
	costNs  float64
	traffic []EpochTraffic
}

// mergeEpochTraffic folds run B's per-epoch migration rows into run A's,
// summing rows that share an epoch index. Both inputs are in ascending
// epoch order (the replay appends rows as epochs complete), and the
// merge preserves that order.
func mergeEpochTraffic(a, b []EpochTraffic) []EpochTraffic {
	if len(b) == 0 {
		return a
	}
	byEpoch := map[int]int{} // epoch → index in out
	out := append([]EpochTraffic(nil), a...)
	for i, row := range out {
		byEpoch[row.Epoch] = i
	}
	for _, row := range b {
		if i, ok := byEpoch[row.Epoch]; ok {
			out[i].Moves += row.Moves
			out[i].Bytes += row.Bytes
			out[i].CostNs += row.CostNs
		} else {
			byEpoch[row.Epoch] = len(out)
			out = append(out, row)
		}
	}
	return out
}

// epochLen rounds the configured epoch length up to a whole number of
// replay blocks.
func epochLen(epochOps int) int {
	blocks := (epochOps + replayBlockOps - 1) / replayBlockOps
	return blocks * replayBlockOps
}

// replayEpochs drives the workload through the deployment in epoch
// chunks, consulting src's per-run observer between them.
func replayEpochs(ctx context.Context, d *server.Deployment, src server.EpochSource, epochOps int, w *ycsb.Workload, classes []uint8, a *replayAccum, budget simclock.Duration) (epochTelemetry, error) {
	var tel epochTelemetry
	obsv, err := src.Begin(w)
	if err != nil {
		return tel, fmt.Errorf("client: adaptive policy rejected workload: %w", err)
	}
	start := d.Clock()
	per := epochLen(epochOps)
	n := len(w.Dataset.Records)
	reads := make([]int32, n)
	writes := make([]int32, n)

	// Resolve the trace once, truncated at a scheduled crash point like
	// the static path; the chunk loop below then never re-decides.
	crashAt := d.CrashOp()
	batched := d.BatchTable() != nil && w.Packed().Batchable()
	var keys []uint32
	var kinds []uint8
	var ops []ycsb.Op
	var total int
	if batched {
		pt := w.Packed()
		keys, kinds = pt.Keys, pt.Kinds
		if crashAt >= 0 && crashAt < len(keys) {
			keys, kinds = keys[:crashAt], kinds[:crashAt]
		} else {
			crashAt = -1
		}
		total = len(keys)
		// Keep the per-op trace in lockstep: the mid-run fallback below
		// (batch table invalidated by a failed patch) and its tally loop
		// slice ops[lo:hi], so ops must carry the same crash truncation
		// as keys/kinds or the fallback would replay past the scheduled
		// crash — or slice a nil trace.
		if w.Ops != nil {
			ops = w.Ops
			if crashAt >= 0 && crashAt <= len(ops) {
				ops = ops[:crashAt]
			}
		}
	} else if w.Ops == nil && w.RequestCount() > 0 {
		return tel, fmt.Errorf("client: packed-only trace requires the batched replay path")
	} else {
		ops = w.Ops
		if crashAt >= 0 && crashAt < len(ops) {
			ops = ops[:crashAt]
		} else {
			crashAt = -1
		}
		total = len(ops)
	}

	for lo := 0; lo < total; lo += per {
		hi := lo + per
		if hi > total {
			hi = total
		}
		epoch := tel.epochs
		tel.epochs++
		if batched {
			// The table can be invalidated by a failed mid-run patch;
			// re-fetch per chunk and fall back to the per-op trace if it
			// is gone for good (w.Ops is non-nil here — packed-only
			// traces were rejected above unless batching holds).
			if t := d.BatchTable(); t != nil {
				err = replayBatchedChunk(ctx, d, t, keys[lo:hi], kinds[lo:hi], classes, a, budget, start, lo, total)
			} else if w.Ops != nil {
				batched = false
				err = replayBoundedChunk(ctx, d, ops[lo:hi], classes, a, budget, start, lo, total)
			} else {
				return tel, fmt.Errorf("client: packed-only trace lost its batch table mid-run")
			}
		} else {
			err = replayBoundedChunk(ctx, d, ops[lo:hi], classes, a, budget, start, lo, total)
		}
		if err != nil {
			return tel, err
		}
		if hi >= total {
			break // final epoch: no Observe, nothing left to recoup
		}

		// Tally this epoch's accesses in a separate O(chunk) pass, off
		// the replay hot loop.
		if batched {
			for i := lo; i < hi; i++ {
				if kinds[i] == uint8(kvstore.Read) {
					reads[keys[i]]++
				} else {
					writes[keys[i]]++
				}
			}
		} else {
			for _, op := range ops[lo:hi] {
				if op.Kind == kvstore.Read {
					reads[op.Key]++
				} else {
					writes[op.Key]++
				}
			}
		}

		moves := obsv.Observe(server.EpochStats{
			Epoch: epoch, Ops: hi - lo,
			Reads: reads, Writes: writes,
			Tiers: d.RecordTiers(),
		})
		row := EpochTraffic{Epoch: epoch}
		if len(moves) > 0 {
			res := d.ApplyMoves(moves)
			row.Moves, row.Bytes, row.CostNs = res.Moves, res.Bytes, res.CostNs
			tel.moves += res.Moves
			tel.bytes += res.Bytes
			tel.costNs += res.CostNs
			if budget > 0 && d.Clock()-start > budget {
				tel.traffic = append(tel.traffic, row)
				return tel, fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
					ErrRunTimeout, hi, total, d.Clock()-start, budget)
			}
		}
		tel.traffic = append(tel.traffic, row)

		// The observer borrows the slices during Observe only; re-zero
		// the entries this chunk touched for the next epoch.
		if batched {
			for _, k := range keys[lo:hi] {
				reads[k], writes[k] = 0, 0
			}
		} else {
			for _, op := range ops[lo:hi] {
				reads[op.Key], writes[op.Key] = 0, 0
			}
		}
	}
	if crashAt >= 0 {
		return tel, d.CrashError()
	}
	return tel, nil
}
