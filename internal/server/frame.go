package server

import "mnemo/internal/kvstore"

// The per-frame replay decision (DESIGN.md §8). The client's one replay
// loop hands every trace frame to FrameTable and serves it through the
// returned table's Serve, or — on nil — request by request through
// DoIndex. Interleaving the two is sound because FrameTable keeps three
// things straight on the way:
//
//   - who holds the pause accumulators. The kernel mirrors the engines'
//     GC accounting instead of advancing it, so before the engines are
//     driven directly (a per-op frame, a migration) the mirror is
//     written into them, and before the kernel serves again it is read
//     back — or re-snapshotted by a re-price;
//   - whether the cost rows are current. A structural request (a Delete,
//     a Write re-inserting a deleted record) or a migration only marks
//     the table stale; the re-price — O(rows the hash engine relaid),
//     or O(records) after a table resize or on the slab and tree
//     engines — runs when a frame the kernel
//     could serve actually arrives, so a trace whose every frame carries
//     a Delete never pays it and one Delete frame in 100M requests pays
//     it once;
//   - whether the deployment can still be rewound: a frame served per-op
//     latches it mutated.

const (
	pathKernel = iota
	pathPerOp
)

// FrameTable decides how the next frame — keys are dataset record
// indices, rw reports a frame of only Read and Write ops — is served. It
// returns the cost table, ready for one Serve call over the frame, when
// batching is available, the frame is read/write-only and none of its
// records is currently deleted (a deleted record has no cost row, and a
// write to one is a structural re-insert). Otherwise it returns nil,
// with the engines ready for the frame's requests through DoIndex.
//
// A run priced from an LLC stream calls AwaitFrame first (llcstream.go).
func (d *Deployment) FrameTable(keys []uint32, rw bool) *ReplayTable {
	if t := d.kernelTable(keys, rw); t != nil {
		if d.perOp {
			t.resyncKernelPauses()
			d.perOp = false
		}
		d.frames[pathKernel]++
		return t
	}
	d.enginesTakePauses()
	d.mutated = true
	d.frames[pathPerOp]++
	return nil
}

// kernelTable is FrameTable's decision without its side effects: the
// cost table when the kernel can serve the frame, else nil.
func (d *Deployment) kernelTable(keys []uint32, rw bool) *ReplayTable {
	if !rw || d.touchesDead(keys) {
		return nil
	}
	return d.BatchTable()
}

// touchesDead reports whether any of the keys is a deleted record.
func (d *Deployment) touchesDead(keys []uint32) bool {
	if d.nDead == 0 {
		return false
	}
	for _, k := range keys {
		if d.dead[k] {
			return true
		}
	}
	return false
}

// enginesTakePauses hands the pause accounting to the engines before
// they are driven directly: if the kernel's mirror holds the current
// accumulators it is written into them, so their own accounting resumes
// where the kernel left it.
func (d *Deployment) enginesTakePauses() {
	if !d.perOp && d.table != nil {
		d.table.syncEnginePauses()
	}
	d.perOp = true
}

// syncEnginePauses writes the kernel's mirrored pause accumulators into
// the engines.
func (t *ReplayTable) syncEnginePauses() {
	for i, inst := range t.d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			br.SyncReplayAccum(t.pause[i].accum)
		}
	}
}

// resyncKernelPauses reads the engines' pause accumulators back into
// the kernel's mirror. The ResetRun snapshot (pauseState.reset) is left
// alone; a deployment that served a per-op frame is mutated and not
// rewindable anyway.
func (t *ReplayTable) resyncKernelPauses() {
	for i, inst := range t.d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			t.pause[i].accum = br.ReplayPauses().Accum
		}
	}
}
