// SLO-explorer: one profiling session, many answers. The estimate curve
// is computed once; the advisor then answers "what does an X% slowdown
// budget cost me?" for a whole sweep of SLOs and SlowMem price points —
// the exploration the paper argues existing tiering tools cannot do
// without reprofiling at every capacity ratio.
//
//	go run ./examples/slo-explorer
package main

import (
	"fmt"
	"log"

	"mnemo"
)

func main() {
	w, err := mnemo.WorkloadByName("timeline", 11)
	if err != nil {
		log.Fatal(err)
	}

	// Profile once with MnemoT's tiered ordering (Fig 2c): the curve is
	// reused for every question below — no further executions happen.
	rep, err := mnemo.Profile(w, mnemo.Options{
		Store:  mnemo.RedisLike,
		Seed:   11,
		Policy: "mnemot",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Profiled %s on %s once: Fast %.0f ops/s, Slow %.0f ops/s\n\n",
		rep.Workload, rep.Engine,
		rep.Baselines.Fast.ThroughputOpsSec, rep.Baselines.Slow.ThroughputOpsSec)

	// Sweep 1: slowdown budget vs advised cost at the paper's p = 0.2.
	fmt.Println("SLO sweep (p = 0.2):")
	fmt.Printf("  %-10s %12s %14s %12s\n", "slowdown", "cost factor", "FastMem MiB", "est ops/s")
	for _, slo := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50} {
		a, err := mnemo.Advise(rep.Curve, slo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %9.0f%% %12.3f %14.1f %12.0f\n",
			slo*100, a.Point.CostFactor,
			float64(a.Point.FastBytes)/(1<<20), a.Point.EstThroughputOps)
	}

	// Sweep 2: how does the sweet spot move as NVM pricing changes? The
	// curve's sizing is price-independent; only the cost labels change,
	// so R(p) is recomputed from the advised point's byte split.
	a, err := mnemo.Advise(rep.Curve, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	total := w.Dataset.TotalBytes
	fmt.Println("\nPrice sweep at the 10% SLO sizing:")
	fmt.Printf("  %-22s %12s\n", "SlowMem price factor p", "cost factor")
	for _, p := range []float64{0.1, 0.2, 0.3, 0.5, 0.7} {
		fmt.Printf("  %22.1f %12.3f\n", p, mnemo.CostReduction(a.Point.FastBytes, total, p))
	}
	fmt.Println("\nEvery answer above came from the single profiling session at the top.")
}
