package core

import (
	"fmt"
)

// Advice is the advisor's answer: the cheapest curve point whose
// estimated performance stays within the permissible slowdown of the
// FastMem-only ideal.
type Advice struct {
	// Point is the recommended sizing.
	Point CurvePoint
	// MaxSlowdown is the SLO used (e.g. 0.10 for the paper's 10%).
	MaxSlowdown float64
	// Satisfiable is false when even the all-FastMem configuration
	// violates the SLO (cannot happen for slowdowns ≥ 0, kept for
	// API completeness).
	Satisfiable bool
	// CostSavings is 1 − CostFactor: the fraction of the FastMem-only
	// memory cost saved.
	CostSavings float64
}

// Advise scans the curve for the minimum-cost point whose estimated
// runtime is within maxSlowdown of the FastMem-only estimate — the
// paper's Fig 9 uses maxSlowdown = 0.10. Curve points are cost-monotone
// in KeysInFast, so the scan returns the first satisfying point.
func Advise(c *Curve, maxSlowdown float64) (Advice, error) {
	if !(maxSlowdown >= 0) { // NaN fails too
		return Advice{}, fmt.Errorf("core: max slowdown %v must be non-negative", maxSlowdown)
	}
	if c == nil {
		return Advice{}, fmt.Errorf("core: nil curve (run the estimate stage before advising)")
	}
	if len(c.Points) == 0 {
		return Advice{}, fmt.Errorf("core: empty curve (no points to advise from)")
	}
	// Runtime budget: FastMem-only estimated runtime inflated by the SLO.
	// (Throughput ≥ (1−s)·T_fast ⇔ runtime ≤ R_fast/(1−s); for small s
	// the paper uses the two interchangeably — we use the runtime form.)
	fastRuntime := float64(c.FastOnly().EstRuntime)
	budget := fastRuntime * (1 + maxSlowdown)
	for _, p := range c.Points {
		if float64(p.EstRuntime) <= budget {
			return Advice{
				Point:       p,
				MaxSlowdown: maxSlowdown,
				Satisfiable: true,
				CostSavings: 1 - p.CostFactor,
			}, nil
		}
	}
	// The all-FastMem endpoint always satisfies slowdown ≥ 0 relative to
	// itself; reaching here means numerical noise — fall back to it.
	return Advice{
		Point:       c.FastOnly(),
		MaxSlowdown: maxSlowdown,
		Satisfiable: true,
		CostSavings: 1 - c.FastOnly().CostFactor,
	}, nil
}

// AdviseLatency finds the minimum-cost point whose *estimated average
// request latency* stays within an absolute budget — the form a
// client-facing SLA is usually written in ("serve within 150 µs on
// average"), rather than the paper's relative-slowdown form. Advice is
// unsatisfiable when even the all-FastMem configuration misses the
// budget.
func AdviseLatency(c *Curve, maxAvgLatencyNs float64) (Advice, error) {
	if !(maxAvgLatencyNs > 0) { // NaN fails too
		return Advice{}, fmt.Errorf("core: latency budget %v must be positive", maxAvgLatencyNs)
	}
	if c == nil {
		return Advice{}, fmt.Errorf("core: nil curve (run the estimate stage before advising)")
	}
	if len(c.Points) == 0 {
		return Advice{}, fmt.Errorf("core: empty curve (no points to advise from)")
	}
	for _, p := range c.Points {
		if p.EstAvgLatencyNs <= maxAvgLatencyNs {
			return Advice{
				Point:       p,
				Satisfiable: true,
				CostSavings: 1 - p.CostFactor,
			}, nil
		}
	}
	return Advice{Point: c.FastOnly(), Satisfiable: false}, nil
}
