package hashkv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mnemo/internal/kvstore"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	tr := s.PutID("k1", kvstore.KeyID("k1"), kvstore.Sized(5))
	if tr.Found {
		t.Error("fresh insert reported Found")
	}
	v, tr := s.GetID("k1", kvstore.KeyID("k1"))
	if !tr.Found || v.Size != 5 {
		t.Fatalf("Get = %+v / %+v", v, tr)
	}
	if tr.Kind != kvstore.Read {
		t.Error("Get trace kind wrong")
	}
	if tr.Touched != 5 {
		t.Errorf("Touched = %d, want 5", tr.Touched)
	}
	if tr.RecordID != kvstore.KeyID("k1") {
		t.Error("RecordID mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	v, tr := s.GetID("nope", kvstore.KeyID("nope"))
	if tr.Found || v.Size != 0 {
		t.Fatal("missing key reported found")
	}
	if tr.Touched != 0 {
		t.Error("missing key touched bytes")
	}
}

func TestPutReplaceAccounting(t *testing.T) {
	s := New()
	s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(100))
	if s.DataBytes() != 100 {
		t.Fatalf("DataBytes = %d", s.DataBytes())
	}
	tr := s.PutID("k", kvstore.KeyID("k"), kvstore.Sized(250))
	if !tr.Found {
		t.Error("replace not reported")
	}
	if s.DataBytes() != 250 {
		t.Fatalf("DataBytes after replace = %d", s.DataBytes())
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := New()
	s.PutID("a", kvstore.KeyID("a"), kvstore.Sized(10))
	s.PutID("b", kvstore.KeyID("b"), kvstore.Sized(20))
	tr := s.DelID("a", kvstore.KeyID("a"))
	if !tr.Found {
		t.Fatal("delete existing not found")
	}
	if s.Len() != 1 || s.DataBytes() != 20 {
		t.Fatalf("after delete: len=%d bytes=%d", s.Len(), s.DataBytes())
	}
	if _, tr := s.GetID("a", kvstore.KeyID("a")); tr.Found {
		t.Fatal("deleted key still found")
	}
	if tr := s.DelID("a", kvstore.KeyID("a")); tr.Found {
		t.Fatal("double delete reported found")
	}
}

func TestGrowthTriggersRehashAndPause(t *testing.T) {
	s := New()
	var sawPause bool
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key%06d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(8))
		if s.TakePauseNs() > 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Error("growing to 1000 keys produced no rehash pause")
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	// All keys still reachable mid/post rehash.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key%06d", i)
		if _, tr := s.GetID(key, kvstore.KeyID(key)); !tr.Found {
			t.Fatalf("key%06d lost during rehash", i)
		}
	}
}

func TestTakePauseDrains(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		s.PutID(key, kvstore.KeyID(key), kvstore.Sized(1))
	}
	s.TakePauseNs()
	if p := s.TakePauseNs(); p != 0 {
		t.Fatalf("second TakePauseNs = %v, want 0", p)
	}
}

func TestChasesGrowWithChainWalk(t *testing.T) {
	s := New()
	_, missTr := s.GetID("absent", kvstore.KeyID("absent"))
	if missTr.Chases < 1 {
		t.Error("miss should still chase the bucket head")
	}
	s.PutID("x", kvstore.KeyID("x"), kvstore.Sized(10))
	_, hitTr := s.GetID("x", kvstore.KeyID("x"))
	if hitTr.Chases <= missTr.Chases {
		t.Errorf("hit chases %d should exceed empty-bucket miss %d (value deref)",
			hitTr.Chases, missTr.Chases)
	}
}

func TestProfileAndName(t *testing.T) {
	p := Profile
	if p.Name != "redislike" {
		t.Error("name wrong")
	}
	if p.MLP != 1 {
		t.Error("redis-like engine must be single-lane")
	}
	if p.WritePenalty >= 1 || p.WritePenalty <= 0 {
		t.Error("write penalty out of range")
	}
}

// Property: the store agrees with a reference map under random ops.
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
			key := fmt.Sprintf("k%d", o.Key)
			switch o.Kind % 3 {
			case 0:
				s.PutID(key, kvstore.KeyID(key), kvstore.Sized(int(o.Size)))
				ref[key] = int(o.Size)
			case 1:
				v, tr := s.GetID(key, kvstore.KeyID(key))
				want, ok := ref[key]
				if tr.Found != ok {
					return false
				}
				if ok && v.Size != want {
					return false
				}
			case 2:
				tr := s.DelID(key, kvstore.KeyID(key))
				_, ok := ref[key]
				if tr.Found != ok {
					return false
				}
				delete(ref, key)
			}
			if s.Len() != len(ref) {
				return false
			}
		}
		var wantBytes int64
		for _, sz := range ref {
			wantBytes += int64(sz)
		}
		return s.DataBytes() == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomChurn(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	live := map[string]int{}
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("key%d", rng.Intn(3000))
		switch rng.Intn(10) {
		case 0:
			s.DelID(key, kvstore.KeyID(key))
			delete(live, key)
		default:
			sz := rng.Intn(4096)
			s.PutID(key, kvstore.KeyID(key), kvstore.Sized(sz))
			live[key] = sz
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	for k, sz := range live {
		v, tr := s.GetID(k, kvstore.KeyID(k))
		if !tr.Found || v.Size != sz {
			t.Fatalf("key %s: found=%v size=%d want %d", k, tr.Found, v.Size, sz)
		}
	}
}
