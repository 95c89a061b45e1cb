package slabkv

import (
	"fmt"
	"testing"
	"testing/quick"

	"mnemo/internal/kvstore"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New(0)
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(5))
	v, tr := s.GetID("k", kvstore.KeyID("k"))
	if !tr.Found || v.Size != 5 {
		t.Fatalf("Get = %+v / %+v", v, tr)
	}
	if s.Len() != 1 || s.DataBytes() != 5 {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.DataBytes())
	}
}

func TestGetMissing(t *testing.T) {
	s := New(0)
	if _, tr := s.GetID("nope", kvstore.KeyID("nope")); tr.Found {
		t.Fatal("missing key found")
	}
}

func TestClassSelection(t *testing.T) {
	s := New(0)
	// Tiny item lands in the smallest class.
	s.PutID("a", kvstore.KeyID("a"), kvstore.Sized(1))
	if s.ChunkBytes() != MinChunk {
		t.Fatalf("chunk bytes = %d, want %d", s.ChunkBytes(), MinChunk)
	}
	// A larger value moves to a larger class chunk.
	before := s.ChunkBytes()
	s.PutID("b", kvstore.KeyID("b"), kvstore.Sized(10_000))
	if s.ChunkBytes() <= before+10_000 {
		t.Fatalf("large item chunk not padded: %d", s.ChunkBytes()-before)
	}
}

func TestClassChangeOnReplace(t *testing.T) {
	s := New(0)
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(50))
	small := s.ChunkBytes()
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(100_000))
	if s.ChunkBytes() <= small {
		t.Fatal("chunk accounting did not grow on class change")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, tr := s.GetID("k", kvstore.KeyID("k"))
	if !tr.Found || v.Size != 100_000 {
		t.Fatal("replacement value lost")
	}
	if s.DataBytes() != 100_000 {
		t.Fatalf("DataBytes = %d", s.DataBytes())
	}
}

func TestOversizedItemRejected(t *testing.T) {
	s := New(0)
	tr := s.PutID("huge", kvstore.KeyID("huge"), kvstore.Sized(2<<20))
	if tr.Found {
		t.Fatal("oversized item stored")
	}
	if s.Len() != 0 {
		t.Fatal("oversized item resident")
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// Room for ~10 chunks of the 1 KB class.
	s := New(12 * 1200)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%02d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(1000))
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions under pressure")
	}
	if s.ChunkBytes() > 12*1200 {
		t.Fatalf("chunk bytes %d exceed limit", s.ChunkBytes())
	}
	// Most recently written key must survive.
	if _, tr := s.GetID("k49", kvstore.KeyID("k49")); !tr.Found {
		t.Fatal("MRU key evicted")
	}
	// Oldest key must be gone.
	if _, tr := s.GetID("k00", kvstore.KeyID("k00")); tr.Found {
		t.Fatal("LRU key survived")
	}
	if s.TakePauseNs() == 0 {
		t.Error("evictions produced no pause")
	}
}

func TestLRUBumpOnGet(t *testing.T) {
	s := New(3 * 1200) // fits ~3 chunks of the 1000-byte class
	s.PutID("a", kvstore.KeyID("a"), kvstore.Sized(1000))
	s.PutID("b", kvstore.KeyID("b"), kvstore.Sized(1000))
	s.GetID("a", kvstore.KeyID("a")) // a becomes MRU; b is LRU within the class
	s.PutID("c", kvstore.KeyID("c"), kvstore.Sized(1000))
	s.PutID("d", kvstore.KeyID("d"), kvstore.Sized(1000)) // must evict b, not a
	if _, tr := s.GetID("a", kvstore.KeyID("a")); !tr.Found {
		t.Fatal("recently read key evicted")
	}
	if _, tr := s.GetID("b", kvstore.KeyID("b")); tr.Found {
		t.Fatal("LRU key not evicted first")
	}
}

func TestDelete(t *testing.T) {
	s := New(0)
	s.PutID("x", kvstore.KeyID("x"), kvstore.Sized(500))
	if tr := s.DelID("x", kvstore.KeyID("x")); !tr.Found {
		t.Fatal("delete missed")
	}
	if s.Len() != 0 || s.DataBytes() != 0 || s.ChunkBytes() != 0 {
		t.Fatalf("residue after delete: len=%d data=%d chunk=%d", s.Len(), s.DataBytes(), s.ChunkBytes())
	}
	if tr := s.DelID("x", kvstore.KeyID("x")); tr.Found {
		t.Fatal("double delete found")
	}
}

func TestProfile(t *testing.T) {
	if Profile.Name != "memcachedlike" {
		t.Error("name wrong")
	}
	if Profile.MLP < 4 {
		t.Error("memcached-like engine needs high MLP to be SlowMem-insensitive")
	}
}

func TestNewPanicsOnNegativeLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

// Property: unlimited store agrees with a reference map, and chunk bytes
// always cover data bytes.
func TestMatchesReferenceMapProperty(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Size uint16
	}
	f := func(ops []op) bool {
		s := New(0)
		ref := map[string]int{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key)
			switch o.Kind % 3 {
			case 0:
				s.PutID(key, kvstore.KeyID(key), kvstore.Sized(int(o.Size)))
				ref[key] = int(o.Size)
			case 1:
				_, tr := s.GetID(key, kvstore.KeyID(key))
				if _, ok := ref[key]; tr.Found != ok {
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
		return s.ChunkBytes() >= s.DataBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
