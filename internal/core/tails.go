package core

import (
	"fmt"

	"mnemo/internal/client"
	"mnemo/internal/stats"
)

// TailEstimator predicts latency *percentiles* for hybrid tierings — a
// reproduction extension beyond the published system. The paper states
// (§V): "regarding the tail latency of the requests, Mnemo does not
// produce any estimate, since the simple analytical model it uses is not
// sufficient to capture the variabilities of the tail latencies."
//
// The extension's observation: the baselines Mnemo already collects are
// full executions, so they carry the complete per-tier latency
// *distributions*, not just their means. For a tiering that sends n_f
// requests of each size class to FastMem and n_s to SlowMem, the
// predicted latency distribution is the mixture of the corresponding
// baseline histograms weighted by those counts, and any percentile falls
// out of the mixture. Service hiccups (rehash, GC) appear in both
// baseline runs at their natural frequency, so the mixture carries them
// into the tails.
type TailEstimator struct{}

// TailPoint is one tiering's predicted percentiles (nanoseconds).
type TailPoint struct {
	KeysInFast          int
	P50Ns, P95Ns, P99Ns float64
}

// Estimate predicts latency percentiles when the first k keys of the
// ordering live on FastMem. The baselines must carry per-size-class
// latency histograms (any client.Measure result does).
func (TailEstimator) Estimate(b Baselines, ord Ordering, k int) (TailPoint, error) {
	if k < 0 || k > len(ord.Keys) {
		return TailPoint{}, fmt.Errorf("core: tail estimate for %d of %d keys", k, len(ord.Keys))
	}
	if len(b.Fast.ReadLatency)+len(b.Fast.WriteLatency) == 0 ||
		len(b.Slow.ReadLatency)+len(b.Slow.WriteLatency) == 0 {
		return TailPoint{}, fmt.Errorf("core: baselines carry no latency histograms")
	}
	// Per-size-class request counts on each side of the split.
	fastReads := map[int]float64{}
	fastWrites := map[int]float64{}
	slowReads := map[int]float64{}
	slowWrites := map[int]float64{}
	for i, key := range ord.Keys {
		bucket := client.SizeBucket(key.Size)
		if i < k {
			fastReads[bucket] += float64(key.Reads)
			fastWrites[bucket] += float64(key.Writes)
		} else {
			slowReads[bucket] += float64(key.Reads)
			slowWrites[bucket] += float64(key.Writes)
		}
	}
	var hists []*stats.Histogram
	var weights []float64
	appendComponents := func(src []client.BucketHistogram, byBucket map[int]float64) {
		for bucket, w := range byBucket {
			if w == 0 {
				continue
			}
			if h := client.HistFor(src, bucket); h != nil {
				hists = append(hists, h)
				weights = append(weights, w)
			}
		}
	}
	appendComponents(b.Fast.ReadLatency, fastReads)
	appendComponents(b.Fast.WriteLatency, fastWrites)
	appendComponents(b.Slow.ReadLatency, slowReads)
	appendComponents(b.Slow.WriteLatency, slowWrites)
	if len(hists) == 0 {
		return TailPoint{}, fmt.Errorf("core: no mixture components for k=%d", k)
	}
	return TailPoint{
		KeysInFast: k,
		P50Ns:      stats.MixtureQuantile(hists, weights, 0.50),
		P95Ns:      stats.MixtureQuantile(hists, weights, 0.95),
		P99Ns:      stats.MixtureQuantile(hists, weights, 0.99),
	}, nil
}

// EstimateCurve predicts percentiles at every sampled point of a curve.
func (te TailEstimator) EstimateCurve(b Baselines, ord Ordering, ks []int) ([]TailPoint, error) {
	out := make([]TailPoint, 0, len(ks))
	for _, k := range ks {
		tp, err := te.Estimate(b, ord, k)
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
	}
	return out, nil
}
