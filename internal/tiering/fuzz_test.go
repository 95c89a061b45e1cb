package tiering

import (
	"math"
	"math/rand"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// FuzzProfilerMatchesReference holds the block-tested sampler to the
// one-Intn-per-touch reference over fuzzed seeds, rates in [2, 2^20],
// up to 64 records of 0 to a few hundred pages and a few thousand
// requests: the samples and the ordering must be equal.
func FuzzProfilerMatchesReference(f *testing.F) {
	f.Add(int64(5), uint32(2), []byte{0, 1, 2, 200}, uint16(300), int64(1))
	f.Add(int64(-3), uint32(1<<20-3), []byte{255, 128, 200, 170, 0, 9}, uint16(2000), int64(2))
	f.Add(int64(1<<40), uint32(3998), []byte{7}, uint16(607), int64(3))
	f.Fuzz(func(t *testing.T, seed int64, rate uint32, sizes []byte, ops uint16, opSeed int64) {
		if len(sizes) == 0 {
			return
		}
		rate = 2 + rate%(1<<20-1)
		w := &ycsb.Workload{Spec: ycsb.Spec{Name: "sampler_fuzz"}}
		for i, b := range sizes[:min(len(sizes), 64)] {
			// 0 to 382 pages, odd multiples off page alignment.
			w.Dataset.Records = append(w.Dataset.Records, ycsb.Record{Key: ycsb.KeyName(i), Size: int(b) * (PageSize + PageSize/2)})
		}
		rng := rand.New(rand.NewSource(opSeed))
		records := len(w.Dataset.Records)
		for i := 0; i < int(ops%3000); i++ {
			w.Ops = append(w.Ops, ycsb.Op{Key: int(float64(records) * math.Pow(rng.Float64(), 2)), Kind: kvstore.Read})
		}
		s := NewAddressSpace(w.Dataset)
		p := NewProfiler(s, int(rate), seed)
		if err := p.Observe(w); err != nil {
			t.Fatal(err)
		}
		checkProfile(t, p, s, int(rate), seed, w)
	})
}
