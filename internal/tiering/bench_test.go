package tiering

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// BenchmarkProfilerObserve profiles tune_sweep's trace shape (news_feed,
// 1000 keys, 100 000 requests) at every sampling rate the tuner's grid
// and the policy defaults reach: 1 takes no draws, 3 and 7 hit often,
// 4000 is registry.DefaultSampleRate (PEBS-like). It reports ns per page
// touch, the unit the sampler's cost scales with.
func BenchmarkProfilerObserve(b *testing.B) {
	spec := ycsb.NewsFeed(1)
	spec.Keys, spec.Requests = 1000, 100_000
	w := ycsb.MustGenerate(spec)
	s := NewAddressSpace(w.Dataset)
	var touches int64
	if err := w.ForEachOp(func(key int, _ kvstore.OpKind) {
		_, pages := s.Pages(key)
		touches += pages
	}); err != nil {
		b.Fatal(err)
	}
	w.Packed() // replay builds it before any policy orders the trace
	for _, rate := range []int{1, 3, 7, 500, 1000, 2000, 4000, 8000, 16000} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := NewProfiler(s, rate, int64(i))
				if err := p.Observe(w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*touches), "ns/touch")
		})
	}
}
