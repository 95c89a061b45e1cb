// Package treekv implements the DynamoDB-local-like engine: a B-tree
// keyed store with a heavyweight, layered request path. DynamoDB-local
// runs a Java service over an embedded SQL engine; each request is
// parsed, validated, marshalled and journalled, touching the record bytes
// several times, and the managed runtime injects periodic collection
// pauses. Those two properties — high read amplification and GC hiccups —
// make this engine the most sensitive to SlowMem placement (Fig 8b) and
// give it the heaviest tails (Fig 8d/8e).
package treekv

import (
	"encoding/binary"

	"mnemo/internal/kvstore"
)

// Profile is the calibrated engine profile (DESIGN.md §5): modest
// per-byte CPU (the marshalling work is memory traffic, not arithmetic)
// but 8× read/write amplification through the layered request path and no
// stall overlap, yielding ≈3.7× slowdown on SlowMem for 100 KB records.
var Profile = kvstore.EngineProfile{
	Name:               "dynamolike",
	CPUBaseNs:          40_000, // request routing, auth stub, SQL layer
	CPUPerByteNs:       0.5,
	MLP:                1,
	WritePenalty:       0.45, // journalled writes still re-read pages
	ReadAmplification:  8,
	WriteAmplification: 8,
}

// degree is the B-tree minimum degree (max 2·degree−1 keys per node),
// comparable to a page-sized SQLite interior node.
const degree = 16

// gcAllocBudget is how many bytes of allocation the managed runtime
// tolerates before a collection pause; gcPauseNs is the injected stall.
const (
	gcAllocBudget = 48 << 20
	gcPauseNs     = 2_500_000 // 2.5 ms young-gen pause
	// requestGarbageB is the fixed per-request framing garbage charged on
	// top of the record bytes.
	requestGarbageB = 4096
)

type treeItem struct {
	ab  abbrev
	key string
	id  uint64
	val kvstore.Value
}

// abbrev is an order-preserving abbreviation of a key: its first 16
// bytes as two big-endian words, zero-padded. Keys that compare less
// never abbreviate greater, so comparing the words first and the
// strings only on a tie orders keys exactly as the strings do. Distinct
// keys tie only when they agree on 16 bytes or differ by trailing NULs;
// the workloads' 12-byte keys never do.
type abbrev struct{ hi, lo uint64 }

func abbreviate(key string) abbrev {
	var b [16]byte
	copy(b[:], key)
	return abbrev{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// less reports whether the item's key orders before key, whose
// abbreviation is ab.
func (it *treeItem) less(ab abbrev, key string) bool {
	if it.ab.hi != ab.hi {
		return it.ab.hi < ab.hi
	}
	if it.ab.lo != ab.lo {
		return it.ab.lo < ab.lo
	}
	return it.key < key
}

type node struct {
	items    []treeItem
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// findKey locates key, abbreviated ab, within the node, reporting the
// comparisons made. The loop is sort.Search unrolled (same probe
// sequence, hence the same comparison count) — the inline form avoids
// allocating a closure on the replay hot path — and compares the
// abbreviations first (abbrev), which decides every probe the key
// strings would.
func (n *node) findKey(ab abbrev, key string) (idx int, found bool, cmps int) {
	i, j := 0, len(n.items)
	for i < j {
		h := int(uint(i+j) >> 1)
		cmps++
		if n.items[h].less(ab, key) {
			i = h + 1
		} else {
			j = h
		}
	}
	found = i < len(n.items) && n.items[i].ab == ab && n.items[i].key == key
	return i, found, cmps
}

// Store is the DynamoDB-like engine. Not safe for concurrent use.
type Store struct {
	root       *node
	count      int
	dataBytes  int64
	pauseNs    float64
	allocBytes int64
	gcCount    int64
}

// New creates an empty store.
func New() *Store { return &Store{root: &node{}} }

// Len implements kvstore.Store.
func (s *Store) Len() int { return s.count }

// DataBytes implements kvstore.Store.
func (s *Store) DataBytes() int64 { return s.dataBytes }

// GCCount reports how many collection pauses were injected.
func (s *Store) GCCount() int64 { return s.gcCount }

// TakePauseNs implements kvstore.Store.
func (s *Store) TakePauseNs() float64 {
	p := s.pauseNs
	s.pauseNs = 0
	return p
}

// charge accounts transient request allocations (parse buffers, copies)
// against the GC budget; DynamoDB-local allocates roughly the record size
// per request in garbage.
func (s *Store) charge(bytes int) {
	s.allocBytes += int64(bytes) + requestGarbageB
	if s.allocBytes >= gcAllocBudget {
		s.allocBytes = 0
		s.pauseNs += gcPauseNs
		s.gcCount++
	}
}

// Height reports the current tree height (root = 1).
func (s *Store) Height() int {
	h := 0
	for n := s.root; n != nil; {
		h++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return h
}

// GetID implements kvstore.Store.
func (s *Store) GetID(key string, id uint64) (kvstore.Value, kvstore.OpTrace) {
	tr := kvstore.OpTrace{Kind: kvstore.Read, RecordID: id}
	ab := abbreviate(key)
	n := s.root
	for {
		tr.Chases++ // node fetch
		idx, found, cmps := n.findKey(ab, key)
		tr.Chases += cmps / 2 // binary-search probes that leave the node header
		if found {
			it := n.items[idx]
			tr.Found = true
			tr.Chases += 6 // marshalling layers re-dereference the record
			tr.Touched = kvstore.Amplify(it.val.Size, Profile.ReadAmplification)
			s.charge(it.val.Size)
			return it.val, tr
		}
		if n.leaf() {
			s.charge(0)
			return kvstore.Value{}, tr
		}
		n = n.children[idx]
	}
}

// PutID implements kvstore.Store.
func (s *Store) PutID(key string, id uint64, v kvstore.Value) kvstore.OpTrace {
	tr := kvstore.OpTrace{Kind: kvstore.Write, RecordID: id,
		Touched: kvstore.Amplify(v.Size, Profile.WriteAmplification)}
	if len(s.root.items) == 2*degree-1 {
		old := s.root
		s.root = &node{children: []*node{old}}
		s.splitChild(s.root, 0)
		s.pauseNs += 20_000 // root split: tree-wide latch
	}
	replacedSize, replaced, chases := s.insertNonFull(s.root, treeItem{ab: abbreviate(key), key: key, id: id, val: v})
	tr.Chases = chases + 6
	tr.Found = replaced
	if replaced {
		s.dataBytes += int64(v.Size) - int64(replacedSize)
	} else {
		s.count++
		s.dataBytes += int64(v.Size)
	}
	s.charge(v.Size)
	return tr
}

// splitChild splits the full child i of parent (standard CLRS B-tree).
func (s *Store) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := degree - 1
	right := &node{items: append([]treeItem(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	median := child.items[mid]
	child.items = child.items[:mid]
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
	parent.items = append(parent.items, treeItem{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = median
}

// insertNonFull inserts into a non-full subtree, returning the replaced
// value size (if the key existed) and the pointer chases spent.
func (s *Store) insertNonFull(n *node, it treeItem) (replacedSize int, replaced bool, chases int) {
	for {
		chases++
		idx, found, cmps := n.findKey(it.ab, it.key)
		chases += cmps / 2
		if found {
			old := n.items[idx].val.Size
			n.items[idx].val = it.val
			return old, true, chases
		}
		if n.leaf() {
			n.items = append(n.items, treeItem{})
			copy(n.items[idx+1:], n.items[idx:])
			n.items[idx] = it
			return 0, false, chases
		}
		if len(n.children[idx].items) == 2*degree-1 {
			s.splitChild(n, idx)
			if it.key > n.items[idx].key {
				idx++
			} else if it.key == n.items[idx].key {
				old := n.items[idx].val.Size
				n.items[idx].val = it.val
				return old, true, chases
			}
		}
		n = n.children[idx]
	}
}

// DelID implements kvstore.Store. Deletion uses the standard B-tree
// rebalancing algorithm (borrow or merge on the way down).
func (s *Store) DelID(key string, id uint64) kvstore.OpTrace {
	tr := kvstore.OpTrace{Kind: kvstore.Delete, RecordID: id}
	removedSize, removed, chases := s.delete(s.root, abbreviate(key), key)
	tr.Chases = chases + 4
	if len(s.root.items) == 0 && !s.root.leaf() {
		s.root = s.root.children[0]
	}
	if removed {
		tr.Found = true
		s.count--
		s.dataBytes -= int64(removedSize)
		s.charge(removedSize)
	} else {
		s.charge(0)
	}
	return tr
}

func (s *Store) delete(n *node, ab abbrev, key string) (removedSize int, removed bool, chases int) {
	chases++
	idx, found, cmps := n.findKey(ab, key)
	chases += cmps / 2
	if found {
		if n.leaf() {
			size := n.items[idx].val.Size
			n.items = append(n.items[:idx], n.items[idx+1:]...)
			return size, true, chases
		}
		// Interior hit: replace with predecessor and delete it below.
		size := n.items[idx].val.Size
		pred, c := s.maxItem(n.children[idx])
		chases += c
		n.items[idx] = pred
		_, _, c2 := s.delete(s.ensureChild(n, idx, &chases), pred.ab, pred.key)
		chases += c2
		return size, true, chases
	}
	if n.leaf() {
		return 0, false, chases
	}
	child := s.ensureChild(n, idx, &chases)
	size, ok, c := s.delete(child, ab, key)
	return size, ok, chases + c
}

// ensureChild guarantees children[idx] has ≥ degree items before descent,
// borrowing from a sibling or merging. idx may shift after a merge; the
// returned node is the correct child to descend into.
func (s *Store) ensureChild(n *node, idx int, chases *int) *node {
	// After a predecessor swap idx can equal len(children)-1 already;
	// clamp defensively.
	if idx >= len(n.children) {
		idx = len(n.children) - 1
	}
	child := n.children[idx]
	if len(child.items) >= degree {
		return child
	}
	*chases += 2
	// Borrow from left sibling.
	if idx > 0 && len(n.children[idx-1].items) >= degree {
		left := n.children[idx-1]
		child.items = append([]treeItem{n.items[idx-1]}, child.items...)
		n.items[idx-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append([]*node{moved}, child.children...)
		}
		return child
	}
	// Borrow from right sibling.
	if idx < len(n.children)-1 && len(n.children[idx+1].items) >= degree {
		right := n.children[idx+1]
		child.items = append(child.items, n.items[idx])
		n.items[idx] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			moved := right.children[0]
			right.children = right.children[1:]
			child.children = append(child.children, moved)
		}
		return child
	}
	// Merge with a sibling.
	if idx == len(n.children)-1 {
		idx--
		child = n.children[idx]
	}
	right := n.children[idx+1]
	child.items = append(child.items, n.items[idx])
	child.items = append(child.items, right.items...)
	child.children = append(child.children, right.children...)
	n.items = append(n.items[:idx], n.items[idx+1:]...)
	n.children = append(n.children[:idx+1], n.children[idx+2:]...)
	return child
}

// maxItem returns the rightmost item of a subtree.
func (s *Store) maxItem(n *node) (treeItem, int) {
	chases := 0
	for !n.leaf() {
		chases++
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1], chases + 1
}

// Keys returns all keys in sorted order (test/diagnostic helper).
func (s *Store) Keys() []string {
	var out []string
	var walk func(n *node)
	walk = func(n *node) {
		for i, it := range n.items {
			if !n.leaf() {
				walk(n.children[i])
			}
			out = append(out, it.key)
		}
		if !n.leaf() {
			walk(n.children[len(n.children)-1])
		}
	}
	walk(s.root)
	return out
}

// CheckInvariants validates B-tree structural invariants, returning a
// description of the first violation found ("" when valid). Used by the
// property tests.
func (s *Store) CheckInvariants() string {
	var check func(n *node, depth int, min, max string) (leafDepth int, msg string)
	check = func(n *node, depth int, min, max string) (int, string) {
		if len(n.items) > 2*degree-1 {
			return 0, "node overfull"
		}
		if n != s.root && len(n.items) < degree-1 {
			return 0, "node underfull"
		}
		for i := 1; i < len(n.items); i++ {
			if n.items[i-1].key >= n.items[i].key {
				return 0, "keys out of order"
			}
		}
		for _, it := range n.items {
			if min != "" && it.key <= min {
				return 0, "key below subtree bound"
			}
			if max != "" && it.key >= max {
				return 0, "key above subtree bound"
			}
		}
		if n.leaf() {
			return depth, ""
		}
		if len(n.children) != len(n.items)+1 {
			return 0, "child count mismatch"
		}
		leafDepth := -1
		for i, c := range n.children {
			lo, hi := min, max
			if i > 0 {
				lo = n.items[i-1].key
			}
			if i < len(n.items) {
				hi = n.items[i].key
			}
			d, msg := check(c, depth+1, lo, hi)
			if msg != "" {
				return 0, msg
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				return 0, "leaves at unequal depth"
			}
		}
		return leafDepth, ""
	}
	_, msg := check(s.root, 0, "", "")
	return msg
}

var _ kvstore.Store = (*Store)(nil)
