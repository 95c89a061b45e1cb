package treekv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mnemo/internal/kvstore"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(3))
	v, tr := s.GetID("k", kvstore.KeyID("k"))
	if !tr.Found || v.Size != 3 {
		t.Fatalf("Get = %+v / %+v", v, tr)
	}
	if tr.Touched != int(3*Profile.ReadAmplification) {
		t.Errorf("Touched = %d, want amplified", tr.Touched)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, tr := s.GetID("nope", kvstore.KeyID("nope")); tr.Found {
		t.Fatal("missing found")
	}
	s.PutID("a", kvstore.KeyID("a"), kvstore.Sized(1))
	if _, tr := s.GetID("b", kvstore.KeyID("b")); tr.Found {
		t.Fatal("sibling key found")
	}
}

func TestReplaceKeepsCount(t *testing.T) {
	s := New()
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(10))
	tr := s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(30))
	if !tr.Found {
		t.Error("replace not flagged")
	}
	if s.Len() != 1 || s.DataBytes() != 30 {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.DataBytes())
	}
}

func TestSortedIterationAfterManyInserts(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	want := map[string]bool{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%08d", rng.Intn(100000))
		s.PutID(k, kvstore.KeyID(k), kvstore.Sized(8))
		want[k] = true
	}
	keys := s.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys len = %d, want %d", len(keys), len(want))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("Keys not sorted")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
	if s.Height() < 2 {
		t.Errorf("tree suspiciously shallow: height %d for %d keys", s.Height(), len(keys))
	}
}

func TestDeleteRebalances(t *testing.T) {
	s := New()
	const n = 3000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%06d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(4))
	}
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(n)
	for step, idx := range perm {
		key := fmt.Sprintf("key%06d", idx)
		tr := s.DelID(key, kvstore.KeyID(key))
		if !tr.Found {
			t.Fatalf("delete %s missed", key)
		}
		if step%500 == 0 {
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatalf("after %d deletes: %s", step+1, msg)
			}
		}
	}
	if s.Len() != 0 || s.DataBytes() != 0 {
		t.Fatalf("residue: len=%d bytes=%d", s.Len(), s.DataBytes())
	}
	if tr := s.DelID("key000000", kvstore.KeyID("key000000")); tr.Found {
		t.Fatal("delete from empty tree found")
	}
}

func TestGCPausesAccrue(t *testing.T) {
	s := New()
	s.PutID("big", kvstore.KeyID("big"), kvstore.Sized(1<<20))
	var paused bool
	for i := 0; i < 100 && !paused; i++ {
		s.GetID("big", kvstore.KeyID("big")) // 1 MB per read: GC budget exhausted quickly
		if s.TakePauseNs() > 0 {
			paused = true
		}
	}
	if !paused {
		t.Fatal("no GC pause after ~100 MB of request garbage")
	}
	if s.GCCount() == 0 {
		t.Fatal("GC count not incremented")
	}
}

func TestRootSplitPause(t *testing.T) {
	s := New()
	var sawPause bool
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%06d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(1))
		if s.TakePauseNs() > 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Error("growing tree produced no split pause")
	}
}

func TestProfileSensitivityOrdering(t *testing.T) {
	if Profile.ReadAmplification < 4 {
		t.Error("dynamo-like engine must amplify reads heavily")
	}
	if Profile.MLP != 1 {
		t.Error("dynamo-like engine should not overlap stalls")
	}
	if Profile.Name != "dynamolike" {
		t.Error("name wrong")
	}
}

// Property: the tree agrees with a reference map and keeps its invariants
// under arbitrary interleavings of put/get/delete.
func TestMatchesReferenceMapProperty(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Size uint16
	}
	f := func(ops []op) bool {
		s := New()
		ref := map[string]int{}
		for _, o := range ops {
			key := fmt.Sprintf("k%03d", o.Key)
			switch o.Kind % 3 {
			case 0:
				s.PutID(key, kvstore.KeyID(key), kvstore.Sized(int(o.Size)))
				ref[key] = int(o.Size)
			case 1:
				v, tr := s.GetID(key, kvstore.KeyID(key))
				want, ok := ref[key]
				if tr.Found != ok || (ok && v.Size != want) {
					return false
				}
			case 2:
				tr := s.DelID(key, kvstore.KeyID(key))
				if _, ok := ref[key]; tr.Found != ok {
					return false
				}
				delete(ref, key)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		return s.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	s := New()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("key%08d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(1))
	}
	if h := s.Height(); h > 6 {
		t.Errorf("height %d too tall for 100k keys at degree %d", h, degree)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestAbbrevSearchMatchesStrings: the abbreviated-key search orders keys
// exactly as the strings do — keys that tie on their first 16 bytes,
// prefixes of one another, NUL and 0xff bytes included — so findKey
// makes the probe sequence, hence the comparison count, of a plain
// string binary search.
func TestAbbrevSearchMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []byte{0, 1, 'a', 'b', 0xff}
	key := func() string {
		b := []byte("user:0000000")[:rng.Intn(13)]
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		return string(b)
	}
	set := map[string]bool{}
	for len(set) < 300 {
		set[key()] = true
	}
	var sorted []string
	for k := range set {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	n := &node{}
	for _, k := range sorted {
		n.items = append(n.items, treeItem{ab: abbreviate(k), key: k})
	}
	for i := 0; i < 2000; i++ {
		k := key()
		cmps := 0
		want := sort.Search(len(sorted), func(i int) bool { cmps++; return sorted[i] >= k })
		idx, found, got := n.findKey(abbreviate(k), k)
		if idx != want || got != cmps || found != (want < len(sorted) && sorted[want] == k) {
			t.Fatalf("findKey(%q) = (%d, %t, %d cmps), strings give (%d, %d cmps)", k, idx, found, got, want, cmps)
		}
	}
}
