package core

// Summary is a JSON-friendly digest of a profiling report, consumed by
// cmd/mnemo's -json output and by downstream tooling that doesn't want
// the full 10 001-point curve.
type Summary struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Policy is the tiering policy's registry name.
	Policy   string `json:"policy"`
	Ordering string `json:"ordering"`

	Keys         int   `json:"keys"`
	Requests     int   `json:"requests"`
	DatasetBytes int64 `json:"dataset_bytes"`

	Baselines BaselineSummary `json:"baselines"`
	Advice    *AdviceSummary  `json:"advice,omitempty"`
	Curve     []PointSummary  `json:"curve"`
}

// BaselineSummary digests the two extreme-configuration measurements.
type BaselineSummary struct {
	FastOpsPerSec   float64 `json:"fast_ops_per_sec"`
	SlowOpsPerSec   float64 `json:"slow_ops_per_sec"`
	SlowdownAllSlow float64 `json:"slowdown_all_slow"`
	FastAvgReadNs   float64 `json:"fast_avg_read_ns"`
	SlowAvgReadNs   float64 `json:"slow_avg_read_ns"`
	FastAvgWriteNs  float64 `json:"fast_avg_write_ns"`
	SlowAvgWriteNs  float64 `json:"slow_avg_write_ns"`
	FastP99Ns       float64 `json:"fast_p99_ns"`
	SlowP99Ns       float64 `json:"slow_p99_ns"`
}

// AdviceSummary digests the advised sizing.
type AdviceSummary struct {
	MaxSlowdown   float64 `json:"max_slowdown"`
	KeysInFast    int     `json:"keys_in_fast"`
	FastBytes     int64   `json:"fast_bytes"`
	CostFactor    float64 `json:"cost_factor"`
	CostSavings   float64 `json:"cost_savings"`
	EstOpsPerSec  float64 `json:"est_ops_per_sec"`
	EstAvgLatency float64 `json:"est_avg_latency_ns"`
}

// PointSummary is one sampled curve point.
type PointSummary struct {
	KeysInFast   int     `json:"keys_in_fast"`
	FastBytes    int64   `json:"fast_bytes"`
	CostFactor   float64 `json:"cost_factor"`
	EstOpsPerSec float64 `json:"est_ops_per_sec"`
}

// Summary digests the report, sampling the curve down to at most
// curveSamples evenly spaced interior points plus both endpoints.
// curveSamples ≤ 0 omits the curve entirely.
func (r *Report) Summary(curveSamples int) Summary {
	s := Summary{
		Workload:     r.Workload,
		Engine:       r.Engine,
		Policy:       r.Policy,
		Ordering:     r.Ordering.Name,
		Keys:         len(r.Ordering.Keys),
		Requests:     r.Curve.Requests,
		DatasetBytes: r.Curve.TotalBytes,
		Baselines: BaselineSummary{
			FastOpsPerSec:   r.Baselines.Fast.ThroughputOpsSec,
			SlowOpsPerSec:   r.Baselines.Slow.ThroughputOpsSec,
			SlowdownAllSlow: r.Baselines.SlowdownAllSlow(),
			FastAvgReadNs:   r.Baselines.Fast.AvgReadNs,
			SlowAvgReadNs:   r.Baselines.Slow.AvgReadNs,
			FastAvgWriteNs:  r.Baselines.Fast.AvgWriteNs,
			SlowAvgWriteNs:  r.Baselines.Slow.AvgWriteNs,
			FastP99Ns:       r.Baselines.Fast.P99Ns,
			SlowP99Ns:       r.Baselines.Slow.P99Ns,
		},
	}
	if r.Advice != nil {
		s.Advice = &AdviceSummary{
			MaxSlowdown:   r.Advice.MaxSlowdown,
			KeysInFast:    r.Advice.Point.KeysInFast,
			FastBytes:     r.Advice.Point.FastBytes,
			CostFactor:    r.Advice.Point.CostFactor,
			CostSavings:   r.Advice.CostSavings,
			EstOpsPerSec:  r.Advice.Point.EstThroughputOps,
			EstAvgLatency: r.Advice.Point.EstAvgLatencyNs,
		}
	}
	if curveSamples > 0 {
		n := len(r.Curve.Points)
		idxs := []int{0}
		for i := 1; i <= curveSamples; i++ {
			idxs = append(idxs, i*(n-1)/(curveSamples+1))
		}
		idxs = append(idxs, n-1)
		prev := -1
		for _, idx := range idxs {
			if idx == prev {
				continue
			}
			prev = idx
			p := r.Curve.Points[idx]
			s.Curve = append(s.Curve, PointSummary{
				KeysInFast:   p.KeysInFast,
				FastBytes:    p.FastBytes,
				CostFactor:   p.CostFactor,
				EstOpsPerSec: p.EstThroughputOps,
			})
		}
	}
	return s
}
