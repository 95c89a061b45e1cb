package client

// Streamed-trace replay (DESIGN.md §16). A workload backed by a
// TraceStream arrives one self-delimiting frame at a time instead of as
// a materialized op slice, so resident memory stays O(frame) no matter
// how many requests the trace declares. Each frame is served through
// the batched replay kernel when it can be (read/write ops on live
// records), and per-op otherwise — deletes and re-inserting writes
// change store structure, which the precomputed cost table cannot
// price. The per-frame decision means one Delete-bearing frame in a
// 100M-op trace costs per-op replay for 4096 requests, not the run.
//
// Bit-identity contract: a streamed replay of a trace equals the whole-
// run per-op replay of the same ops. Read/write frames go through
// ReplayTable.Serve, already bit-identical to the per-op path by the
// §12 construction; per-op frames interleave via the pause-sync
// handshake (server.ReplayTable.SyncEnginePauses / ResyncKernelPauses /
// Deployment.RetryBatchTable) so the engines' own accounting resumes
// exactly where the kernel's mirror left it and vice versa.

import (
	"context"
	"fmt"
	"io"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// replayStream drives a stream-backed workload through the deployment
// frame by frame. Cancellation is polled once per frame (frames are
// replayBlockOps-sized, matching the in-memory paths' poll cadence);
// the simulated budget is checked per request on both sub-paths, and a
// scheduled crash truncates the trace at the same global request index
// the in-memory paths use.
func replayStream(ctx context.Context, d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum, budget simclock.Duration) error {
	total := w.Stream.Requests()
	it, err := w.Stream.Frames()
	if err != nil {
		return fmt.Errorf("client: opening trace stream: %w", err)
	}
	crashAt := d.CrashOp()
	if crashAt >= total {
		crashAt = -1 // crash point beyond the trace: never fires
	}
	start := d.Clock()
	var maxClock simclock.Duration
	if budget > 0 {
		maxClock = start + budget
	}
	t := d.BatchTable()
	batching := t != nil // retry re-pricing only if batching was ever on
	var lat []simclock.Duration
	if t != nil {
		lat = t.Block()
	}
	var dead []bool // records deleted by this run; nil until first Delete
	done := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, kinds, rw, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("client: decoding trace frame at request %d: %w", done, err)
		}
		crashed := false
		if crashAt >= 0 && crashAt < done+len(keys) {
			n := crashAt - done
			keys, kinds = keys[:n], kinds[:n]
			crashed = true
		}
		// A frame is batchable when the kernel is available, the frame
		// carries only reads and overwrites, and none of its records
		// were deleted earlier in the run (their cost rows are stale,
		// and a write to one is a structural re-insert).
		servable := t != nil && rw
		if servable && dead != nil {
			for _, k := range keys {
				if dead[k] {
					servable = false
					break
				}
			}
		}
		if servable {
			served := t.Serve(keys, kinds, maxClock, lat)
			a.foldBlock(keys[:served], kinds[:served], classes, lat[:served])
			if served < len(keys) {
				return fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
					ErrRunTimeout, done+served, total, d.Clock()-start, budget)
			}
			done += served
		} else {
			if t != nil {
				t.SyncEnginePauses()
			}
			structural := false
			for i, k := range keys {
				kind := kvstore.OpKind(kinds[i])
				switch kind {
				case kvstore.Delete:
					if dead == nil {
						dead = make([]bool, len(classes))
					}
					if !dead[k] {
						dead[k] = true
						structural = true
					}
				case kvstore.Write:
					if dead != nil && dead[k] {
						dead[k] = false // re-insert of a deleted record
						structural = true
					}
				}
				res := d.DoIndex(int(k), kind)
				a.observe(kind, int(classes[k]), float64(res.Latency.Nanoseconds()))
				if budget > 0 && d.Clock()-start > budget {
					return fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
						ErrRunTimeout, done+i+1, total, d.Clock()-start, budget)
				}
			}
			done += len(keys)
			if structural {
				d.MarkMutated()
				if batching {
					if t = d.RetryBatchTable(dead); t != nil {
						lat = t.Block()
					}
				}
			} else if t != nil {
				t.ResyncKernelPauses()
			}
		}
		if crashed {
			return d.CrashError()
		}
	}
	if done != total {
		return fmt.Errorf("client: trace stream ended after %d of %d requests", done, total)
	}
	return nil
}
