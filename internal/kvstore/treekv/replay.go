package treekv

import "mnemo/internal/kvstore"

// Batched-replay capability (kvstore.BatchReplayer, DESIGN.md §12).
//
// Two treekv behaviours are dynamic in steady state. First, Put splits
// any full node it descends through — even on a pure overwrite — so a
// tree fresh off a bulk load keeps restructuring for a while and its
// chase counts drift. Quiesce performs those preemptive splits up front,
// after which reads and overwrites of resident keys leave the structure
// untouched and every descent is static. Second, the GC budget (charge)
// injects a pause every gcAllocBudget bytes of request garbage; that is
// a pure function of the op sequence, and the kernel drives it through
// ChargeReplay, so the store keeps the only copy of the GC accounting.

// Quiesce implements kvstore.BatchReplayer: it splits every full node —
// exactly the splits future Puts would perform on their way down — until
// none remain. A pass may refill a parent (each child split pushes one
// item up), so passes repeat to a fixpoint; splits are capped by the
// final node count, which the fixed item population bounds. Only root
// splits stall the tree (the per-op path charges no pause for interior
// preemptive splits either); the stall accrues in pauseNs for the loader
// to drain untimed.
func (s *Store) Quiesce() {
	for s.quiescePass() {
	}
}

// quiescePass performs one top-down preemptive-split sweep, reporting
// whether it split anything. Children of a currently-full parent are
// skipped (splitChild needs room for the promoted median) and picked up
// by the next pass, after the parent itself has been split.
func (s *Store) quiescePass() bool {
	split := false
	if len(s.root.items) == 2*degree-1 {
		old := s.root
		s.root = &node{children: []*node{old}}
		s.splitChild(s.root, 0)
		s.pauseNs += 20_000 // root split: tree-wide latch, as in PutID
		split = true
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			return
		}
		for i := 0; i < len(n.children); i++ {
			if len(n.items) < 2*degree-1 && len(n.children[i].items) == 2*degree-1 {
				s.splitChild(n, i)
				split = true
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.root)
	return split
}

// ReplayReady implements kvstore.BatchReplayer: true when no node is
// full, so no Put descent can split.
func (s *Store) ReplayReady() bool {
	var full func(n *node) bool
	full = func(n *node) bool {
		if len(n.items) == 2*degree-1 {
			return true
		}
		for _, c := range n.children {
			if full(c) {
				return true
			}
		}
		return false
	}
	return !full(s.root)
}

// StaticTrace implements kvstore.BatchReplayer. On a quiesced tree Get
// and Put walk the identical descent (insertNonFull skips its split
// checks when nothing is full) and both add the six marshalling-layer
// dereferences on the found record.
func (s *Store) StaticTrace(key string, id uint64) (getChases, putChases int, ok bool) {
	chases := 0
	ab := abbreviate(key)
	n := s.root
	for {
		chases++ // node fetch
		idx, found, cmps := n.findKey(ab, key)
		chases += cmps / 2
		if found {
			if n.items[idx].id != id {
				return 0, 0, false
			}
			return chases + 6, chases + 6, true
		}
		if n.leaf() {
			return 0, 0, false
		}
		n = n.children[idx]
	}
}

// MissTrace implements kvstore.BatchReplayer: a miss descends to the
// leaf the key would sit in, a path the resident keys decide.
func (s *Store) MissTrace() (int, bool) { return 0, false }

// ChargeReplay implements kvstore.BatchReplayer: a resident record's Get
// and Put both charge its payload size (GetID charges the stored size,
// which a fixed-dataset replay never changes), and on a quiesced tree
// they add no other stall.
func (s *Store) ChargeReplay(size int) float64 {
	s.charge(size)
	return s.TakePauseNs()
}

// PauseAccum implements kvstore.BatchReplayer: the GC accumulator.
func (s *Store) PauseAccum() (int64, bool) { return s.allocBytes, true }

// SetPauseAccum implements kvstore.BatchReplayer.
func (s *Store) SetPauseAccum(accum int64) { s.allocBytes = accum }

// Relaid implements kvstore.BatchReplayer and always reports the change
// unbounded, so callers re-probe every key. A key's trace counts the
// nodes on its descent and the binary-search comparisons within each,
// so an insert or remove, by changing one node's item count, can shift
// the trace of every key whose descent passes through that node — its
// whole subtree — and a split or merge reshapes descents outright:
// there is no cheap bound on whose trace moved.
func (s *Store) Relaid(func(key string, id uint64)) bool { return false }

// RelaidBounded implements kvstore.BatchReplayer: never.
func (s *Store) RelaidBounded() bool { return false }

var _ kvstore.BatchReplayer = (*Store)(nil)
