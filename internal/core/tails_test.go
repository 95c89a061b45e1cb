package core

import (
	"context"
	"testing"

	"mnemo/internal/server"
)

func TestTailEstimatorEndpointsMatchBaselines(t *testing.T) {
	w := testWorkload(31)
	cfg := DefaultConfig(server.RedisLike, 31)
	rep, err := Profile(context.Background(), cfg, w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var te TailEstimator
	// k = all keys → FastMem-only distribution; k = 0 → SlowMem-only.
	fast, err := te.Estimate(rep.Baselines, rep.Ordering, len(rep.Ordering.Keys))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := te.Estimate(rep.Baselines, rep.Ordering, 0)
	if err != nil {
		t.Fatal(err)
	}
	within := func(pred, meas, tol float64) bool {
		if meas == 0 {
			return pred == 0
		}
		d := (pred - meas) / meas
		return d < tol && d > -tol
	}
	if !within(fast.P95Ns, rep.Baselines.Fast.P95Ns, 0.10) {
		t.Errorf("fast p95 pred %.0f vs meas %.0f", fast.P95Ns, rep.Baselines.Fast.P95Ns)
	}
	if !within(slow.P95Ns, rep.Baselines.Slow.P95Ns, 0.10) {
		t.Errorf("slow p95 pred %.0f vs meas %.0f", slow.P95Ns, rep.Baselines.Slow.P95Ns)
	}
	if !within(slow.P99Ns, rep.Baselines.Slow.P99Ns, 0.15) {
		t.Errorf("slow p99 pred %.0f vs meas %.0f", slow.P99Ns, rep.Baselines.Slow.P99Ns)
	}
	// The interior interpolates between the endpoints.
	mid, err := te.Estimate(rep.Baselines, rep.Ordering, len(rep.Ordering.Keys)/2)
	if err != nil {
		t.Fatal(err)
	}
	if mid.P95Ns > slow.P95Ns*1.05 {
		t.Errorf("mid-curve p95 %.0f above slow endpoint %.0f", mid.P95Ns, slow.P95Ns)
	}
	if mid.P50Ns <= 0 {
		t.Error("p50 missing")
	}
}

func TestTailEstimatorMonotoneInFastKeys(t *testing.T) {
	// More FastMem never raises the predicted tails (read-only trending).
	w := testWorkload(32)
	cfg := DefaultConfig(server.RedisLike, 32)
	rep, err := Profile(context.Background(), cfg, w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var te TailEstimator
	ks := []int{0, 250, 500, 750, 1000}
	points, err := te.EstimateCurve(rep.Baselines, rep.Ordering, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ks) {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].P95Ns > points[i-1].P95Ns*1.02 {
			t.Errorf("p95 rose from %.0f to %.0f as FastMem grew",
				points[i-1].P95Ns, points[i].P95Ns)
		}
	}
}

func TestTailEstimatorErrors(t *testing.T) {
	w := testWorkload(33)
	ord := TouchOrdering(w)
	var te TailEstimator
	if _, err := te.Estimate(Baselines{}, ord, 0); err == nil {
		t.Error("histogram-free baselines accepted")
	}
	cfg := DefaultConfig(server.RedisLike, 33)
	b, err := MeasureBaselines(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := te.Estimate(b, ord, -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := te.Estimate(b, ord, len(ord.Keys)+1); err == nil {
		t.Error("oversized k accepted")
	}
	if _, err := te.EstimateCurve(b, ord, []int{0, -1}); err == nil {
		t.Error("EstimateCurve swallowed bad k")
	}
}
