package server

import "mnemo/internal/kvstore"

// The per-run replay decision (DESIGN.md §8). The client's one replay
// loop hands every trace frame to FrameTable, run by run: FrameTable
// names the next run of requests and whether the returned table or — on
// nil — the engines serve it per-op, in ServeRun's stage 1. Interleaving
// the two is sound because FrameTable keeps two things straight on the
// way. (The GC pause accounting needs no keeping: it is the engine's
// alone, charged by the kernel through kvstore.BatchReplayer.ChargeReplay
// as by the per-op path through GetID and PutID.)
//
//   - whether the cost rows are current. A structural request (a Delete,
//     a Write re-inserting a deleted record) or a migration only marks
//     the table stale; the re-price — O(rows the engines relaid), or
//     O(records) after a hash-table resize or on the tree engine — runs
//     when a run the kernel could serve actually arrives. Mid-frame, the
//     kernel is offered only where that re-price is bounded, so a trace
//     whose frames all carry a Delete never pays an unbounded one;
//   - whether the deployment can still be rewound: a run served per-op
//     latches it mutated.

// The paths a frame can take, as frames_total labels them. A run is
// served by the kernel or per-op; a frame whose runs took both is mixed.
const (
	pathKernel = iota
	pathPerOp
	pathMixed
	numFramePaths
)

// FrameTable decides how the run of the frame that starts at request
// from is served, and returns where it ends. keys are dataset record
// indices, kinds their op kinds and rw reports a frame of only Read and
// Write ops. The replay loop calls it with from 0 at each frame, and
// again at the end of each run until the frame is served.
//
// The kernel serves a Read of a live record, a Read of a deleted record
// when the engine has a not-found row for it (MissTrace), and a Write to
// a live record. When the table is returned, requests [from, end) are all
// of that kind and the table is priced for them: one Serve call serves
// the run. On nil, the engines are ready to serve requests [from, end)
// per-op: a Delete, a re-insert, a Read without a not-found
// row — or the whole rest of the frame when the kernel may not serve its
// remainder: batching is off, or the frame carries a structural request
// and an engine's relayout journal is unbounded (treekv, a hash table
// mid-resize), so re-pricing after it would probe every row.
//
// A read/write frame that touches no deleted record is one run, found
// without a per-request scan.
//
// Both paths read the same LLC hit bits (llcstream.go); a run priced
// from a shared stream calls AwaitFrame for the frame first.
func (d *Deployment) FrameTable(keys []uint32, kinds []uint8, rw bool, from int) (*ReplayTable, int) {
	end := len(keys)
	var t *ReplayTable
	switch n := d.kernelRun(keys, kinds, rw, from); {
	case from == 0 && n == end:
		// The whole frame: the table is priced however the engines say,
		// once per frame at most.
		t = d.BatchTable()
	case n > 0:
		if d.stale == priced || d.relaidBounded() {
			t = d.BatchTable()
		}
		if t != nil {
			end = from + n
		}
	case d.relaidBounded():
		end = from + 1
		for end < len(keys) && !d.kernelServes(keys[end], kinds[end]) {
			end++
		}
	}
	path := pathKernel
	if t == nil {
		d.mutated = true
		path = pathPerOp
	}
	if d.frameMix |= 1 << path; end == len(keys) {
		d.frames[d.frameMix-1]++
		d.frameMix = 0
	}
	return t, end
}

// kernelRun returns how many requests of the frame, from request from
// on, the kernel may serve in a row.
func (d *Deployment) kernelRun(keys []uint32, kinds []uint8, rw bool, from int) int {
	if rw && d.nDead == 0 {
		return len(keys) - from
	}
	for i := from; i < len(keys); i++ {
		if !d.kernelServes(keys[i], kinds[i]) {
			return i - from
		}
	}
	return len(keys) - from
}

// kernelServes reports whether a request of the given kind on record k
// has a cost row: a Read of a live record or of a deleted one with a
// not-found row, or a Write to a live record.
func (d *Deployment) kernelServes(k uint32, kind uint8) bool {
	switch kvstore.OpKind(kind) {
	case kvstore.Read:
		return d.nDead == 0 || !d.dead[k] || d.missRows
	case kvstore.Write:
		return d.nDead == 0 || !d.dead[k]
	}
	return false
}

// relaidBounded reports whether re-pricing the table now would probe
// only the rows the engines' journals name. It drains nothing.
func (d *Deployment) relaidBounded() bool {
	if d.cfg.DisableBatchReplay {
		return false
	}
	for _, br := range d.replayers {
		if br == nil || !br.RelaidBounded() {
			return false
		}
	}
	return true
}
