package client

import (
	"fmt"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Adaptive replay — DESIGN.md §15. The replay loop (replayFrames) treats
// an epoch as a frame boundary: the per-record access counts are tallied
// from each served frame's key column, and at the first frame boundary
// at or after the configured epoch length the run's EpochObserver
// receives them and may answer with migrations, which the deployment
// applies — and charges to the simulated clock — before the next frame
// is read. Migration cost advances the clock exactly like request
// service time.

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

// epochs is one adaptive run's epoch state inside the replay loop.
type epochs struct {
	obsv  server.EpochObserver
	per   int // epoch length in requests, a whole number of frames
	start int // request index at which the current epoch began
	// reads and writes are the current epoch's per-record tallies, lent
	// to the observer during Observe.
	reads, writes []int32
}

func beginEpochs(src server.EpochSource, epochOps int, w *ycsb.Workload) (*epochs, error) {
	obsv, err := src.Begin(w)
	if err != nil {
		return nil, fmt.Errorf("client: adaptive policy rejected workload: %w", err)
	}
	n := len(w.Dataset.Records)
	return &epochs{obsv: obsv, per: epochLen(epochOps), reads: make([]int32, n), writes: make([]int32, n)}, nil
}

// frame tallies one served frame and reports whether the epoch is due to
// end at this frame boundary — done requests into the run.
func (e *epochs) frame(keys []uint32, kinds []uint8, done int) bool {
	for i, k := range keys {
		if kinds[i] == uint8(kvstore.Read) {
			e.reads[k]++
		} else {
			e.writes[k]++
		}
	}
	return done-e.start >= e.per
}

// migrate ends the epoch at the current frame boundary, done requests
// into the run: the observer sees the epoch's tallies and the deployment
// applies its moves.
func (e *epochs) migrate(d *server.Deployment, done int, tel *epochTelemetry) {
	row := EpochTraffic{Epoch: tel.epochs}
	moves := e.obsv.Observe(server.EpochStats{
		Epoch: tel.epochs, Ops: done - e.start,
		Reads: e.reads, Writes: e.writes,
		Tiers: d.RecordTiers(),
	})
	if len(moves) > 0 {
		res := d.ApplyMoves(moves)
		row.Moves, row.Bytes, row.CostNs = res.Moves, res.Bytes, res.CostNs
		tel.moves += res.Moves
		tel.bytes += res.Bytes
		tel.costNs += res.CostNs
	}
	tel.traffic = append(tel.traffic, row)
	tel.epochs++
	// Observe is itself O(records) in every policy; so is this, at
	// memory-clear speed.
	clear(e.reads)
	clear(e.writes)
	e.start = done
}
