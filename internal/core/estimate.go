package core

import (
	"fmt"

	"mnemo/internal/client"
	"mnemo/internal/costmodel"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// bucketDiff builds a per-key penalty lookup from the slow and fast
// baselines' per-size-class latency histograms (exact class means),
// falling back to the global diff when either side lacks the key's
// class.
func bucketDiff(slow, fast []client.BucketHistogram, global float64) func(KeyStat) float64 {
	return func(k KeyStat) float64 {
		b := client.SizeBucket(k.Size)
		s, f := client.HistFor(slow, b), client.HistFor(fast, b)
		if s == nil || f == nil {
			return global
		}
		return s.Mean() - f.Mean()
	}
}

// EstimateEngine turns measured baselines and a key ordering into the
// full cost/performance trade-off curve (paper §IV, component 3).
//
// The analytical model: with the first k keys of the ordering in FastMem,
// every read of a SlowMem-resident key costs the measured average
// SlowMem read time instead of the FastMem one (likewise writes), so
//
//	Runtime(k) = FastRuntime
//	           + slowReads(k)·(SlowReadTime − FastReadTime)
//	           + slowWrites(k)·(SlowWriteTime − FastWriteTime)
//
// Throughput(k) = Requests / Runtime(k), and the memory cost factor is
// R(p) for the FastMem byte capacity the prefix occupies. Because the
// simulator's service times are additive per request — as the paper
// observes real key-value store service times to be — this simple model
// is near-exact (Fig 8a: 0.07% median error).
type EstimateEngine struct {
	priceFactor float64
	sizeAware   bool
}

// NewEstimateEngine builds the engine for a price factor p (0 uses the
// paper's 0.2).
func NewEstimateEngine(priceFactor float64) (*EstimateEngine, error) {
	if priceFactor == 0 {
		priceFactor = costmodel.DefaultPriceFactor
	}
	if !(priceFactor > 0 && priceFactor <= 1) { // NaN fails too
		return nil, fmt.Errorf("core: price factor %v outside (0,1]", priceFactor)
	}
	return &EstimateEngine{priceFactor: priceFactor}, nil
}

// SetSizeAware enables the size-aware estimate extension: instead of the
// paper's single global (SlowTime − FastTime) average, each key's
// penalty uses the average measured for its power-of-two record-size
// class, falling back to the global average for unobserved classes.
//
// This is a reproduction extension beyond the published model. The
// global average is exact when the SlowMem-resident keys have the same
// size mix as the whole trace — true for the paper's single-size-class
// workloads and for touch orderings — but MnemoT orderings over mixed
// record sizes leave the *large* keys on SlowMem, where a global average
// systematically underestimates the penalty. See the size-aware ablation
// in internal/experiments.
func (e *EstimateEngine) SetSizeAware(on bool) { e.sizeAware = on }

// Curve computes the estimate curve for the workload with the given
// measured baselines and key ordering.
func (e *EstimateEngine) Curve(w *ycsb.Workload, b Baselines, ord Ordering) (*Curve, error) {
	if len(ord.Keys) != len(w.Dataset.Records) {
		return nil, fmt.Errorf("core: ordering covers %d keys, dataset has %d",
			len(ord.Keys), len(w.Dataset.Records))
	}
	if b.Fast.Runtime <= 0 || b.Slow.Runtime <= 0 {
		return nil, fmt.Errorf("core: baselines not measured (fast %v, slow %v)",
			b.Fast.Runtime, b.Slow.Runtime)
	}
	totalReads, totalWrites := 0, 0
	for _, k := range ord.Keys {
		totalReads += k.Reads
		totalWrites += k.Writes
	}
	requests := totalReads + totalWrites
	if requests != w.RequestCount() {
		return nil, fmt.Errorf("core: ordering accounts for %d requests, trace has %d",
			requests, w.RequestCount())
	}

	dRead := b.Slow.AvgReadNs - b.Fast.AvgReadNs
	dWrite := b.Slow.AvgWriteNs - b.Fast.AvgWriteNs
	readDiff := func(KeyStat) float64 { return dRead }
	writeDiff := func(KeyStat) float64 { return dWrite }
	if e.sizeAware {
		readDiff = bucketDiff(b.Slow.ReadLatency, b.Fast.ReadLatency, dRead)
		writeDiff = bucketDiff(b.Slow.WriteLatency, b.Fast.WriteLatency, dWrite)
	}

	c := &Curve{
		Workload:    w.Spec.Name,
		Engine:      b.Fast.Engine,
		Ordering:    ord.Name,
		PriceFactor: e.priceFactor,
		TotalBytes:  w.Dataset.TotalBytes,
		Requests:    requests,
		Baselines:   b,
		Points:      make([]CurvePoint, len(ord.Keys)+1),
	}

	fastNs := float64(b.Fast.Runtime.Nanoseconds())
	// slowPenaltyNs is the total extra time of the keys still resident on
	// SlowMem; keys peel off as the FastMem prefix grows.
	var slowPenaltyNs float64
	for _, k := range ord.Keys {
		slowPenaltyNs += float64(k.Reads)*readDiff(k) + float64(k.Writes)*writeDiff(k)
	}
	var fastBytes int64
	for k := 0; k <= len(ord.Keys); k++ {
		lastKey := ""
		if k > 0 {
			prev := ord.Keys[k-1]
			slowPenaltyNs -= float64(prev.Reads)*readDiff(prev) + float64(prev.Writes)*writeDiff(prev)
			fastBytes += int64(prev.Size)
			lastKey = prev.Key
		}
		estNs := fastNs + slowPenaltyNs
		if estNs < 1 {
			estNs = 1 // degenerate but keeps throughput finite
		}
		p := CurvePoint{
			KeysInFast:      k,
			LastKey:         lastKey,
			FastBytes:       fastBytes,
			CostFactor:      costmodel.CostReduction(fastBytes, c.TotalBytes, e.priceFactor),
			EstRuntime:      simclock.FromNanos(estNs),
			EstAvgLatencyNs: estNs / float64(requests),
		}
		p.EstThroughputOps = float64(requests) / p.EstRuntime.Seconds()
		c.Points[k] = p
	}
	return c, nil
}
