// Package core implements Mnemo itself: the Sensitivity, Pattern,
// Estimate and Placement engines of Fig 6, the MnemoT tiering extension
// of Fig 7, and the SLO advisor that finds the cost/performance sweet
// spot the paper's Fig 9 reports.
//
// Data flow (paper §IV):
//
//	workload descriptor ──► Sensitivity Engine ──► performance baselines
//	                    ──► Pattern Engine     ──► key ordering + Req(keys)
//	baselines + pattern ──► Estimate Engine    ──► cost/throughput curve (CSV)
//	chosen curve point  ──► Placement Engine   ──► static Fast/Slow placement
package core

import (
	"fmt"

	"mnemo/internal/client"
	"mnemo/internal/costmodel"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
)

// Baselines are the two extreme-configuration measurements the
// Sensitivity Engine extracts by actually executing the workload: all
// data in FastMem (best case) and all data in SlowMem (worst case).
type Baselines struct {
	Fast client.RunStats
	Slow client.RunStats
}

// SlowdownAllSlow reports the runtime inflation of the all-SlowMem run
// relative to all-FastMem (≥ 1 for memory-sensitive stores).
func (b Baselines) SlowdownAllSlow() float64 {
	if b.Fast.Runtime == 0 {
		return 0
	}
	return float64(b.Slow.Runtime) / float64(b.Fast.Runtime)
}

// KeyStat is one key's contribution to the access pattern — the
// Req(keys) relationship the Pattern Engine establishes.
type KeyStat struct {
	Index  int // index into the workload's dataset
	Key    string
	Size   int
	Reads  int
	Writes int
}

// Accesses returns the key's total request count.
func (k KeyStat) Accesses() int { return k.Reads + k.Writes }

// Weight is MnemoT's placement weight: accesses divided by the key-value
// pair size, so hot and small keys are prioritized for FastMem.
func (k KeyStat) Weight() float64 {
	if k.Size <= 0 {
		return float64(k.Accesses())
	}
	return float64(k.Accesses()) / float64(k.Size)
}

// Ordering is a FastMem-priority ordering of the key space produced by a
// pattern engine: prefixes of the ordering are the incremental FastMem
// populations of the estimate curve.
type Ordering struct {
	// Name identifies the producing tiering policy: "touch" (stand-alone
	// Mnemo), "mnemot" (MnemoT weighted tiering), "external" (an existing
	// tiering solution's output, deployment mode 2b), or any other
	// registered TieringPolicy's name.
	Name string
	Keys []KeyStat
}

// TotalBytes sums the dataset bytes across the ordering.
func (o Ordering) TotalBytes() int64 {
	var total int64
	for _, k := range o.Keys {
		total += int64(k.Size)
	}
	return total
}

// CurvePoint is one row of Mnemo's output: the estimated performance and
// relative memory cost when FastMem holds exactly the first KeysInFast
// keys of the ordering.
type CurvePoint struct {
	KeysInFast int
	// LastKey is the key admitted to FastMem at this point ("" for the
	// all-SlowMem origin).
	LastKey string
	// FastBytes is the FastMem capacity this point requires.
	FastBytes int64
	// CostFactor is R(p) relative to a FastMem-only system.
	CostFactor float64
	// EstRuntime / EstThroughputOps / EstAvgLatencyNs are the Estimate
	// Engine's model outputs.
	EstRuntime       simclock.Duration
	EstThroughputOps float64
	EstAvgLatencyNs  float64
}

// Curve is the full cost/performance trade-off estimate for a workload on
// an engine — the solid blue line of Fig 5.
type Curve struct {
	Workload    string
	Engine      string
	Ordering    string
	PriceFactor float64
	TotalBytes  int64
	Requests    int
	Baselines   Baselines
	// Points has len(keys)+1 entries: point 0 is the all-SlowMem origin,
	// point len(keys) the all-FastMem best case.
	Points []CurvePoint
}

// FastOnly returns the all-FastMem endpoint of the curve.
func (c *Curve) FastOnly() CurvePoint { return c.Points[len(c.Points)-1] }

// SlowOnly returns the all-SlowMem origin of the curve.
func (c *Curve) SlowOnly() CurvePoint { return c.Points[0] }

// PointAtCost returns the first point whose cost factor is ≥ the target
// (points are cost-monotone), or the last point if none reaches it.
func (c *Curve) PointAtCost(target float64) CurvePoint {
	for _, p := range c.Points {
		if p.CostFactor >= target {
			return p
		}
	}
	return c.FastOnly()
}

// Config bundles everything Mnemo needs to profile one workload against
// one engine deployment.
type Config struct {
	Server server.Config
	// Runs is how many times the Sensitivity Engine repeats each baseline
	// execution (the paper reports means of multiple runs). Default 1.
	Runs int
	// PriceFactor is the SlowMem:FastMem per-byte price ratio p; 0 means
	// the paper's 0.2.
	PriceFactor float64
	// SizeAwareEstimate enables the per-size-class estimate extension
	// (see EstimateEngine.SetSizeAware). Off by default: the paper's
	// model uses a single global average.
	SizeAwareEstimate bool
}

// MaxRuns caps Config.Runs. Every repetition holds its stats until
// the fold, so the repetition count sizes an allocation; a thousand
// repetitions is far past where the mean stops moving.
const MaxRuns = 1000

// Validate rejects malformed run knobs with errors naming the field. The
// server knobs are checked by server.Config, which owns them, and
// Validate adds Runs and PriceFactor. Zero values are the defaults and
// always pass.
func (c Config) Validate() error {
	if c.Runs < 0 {
		return fmt.Errorf("core: Runs %d must be non-negative (0 means the default of 1)", c.Runs)
	}
	if c.Runs > MaxRuns {
		return fmt.Errorf("core: Runs %d above the cap of %d", c.Runs, MaxRuns)
	}
	if !(c.PriceFactor >= 0 && c.PriceFactor <= 1) { // NaN fails too
		return fmt.Errorf("core: PriceFactor %v outside (0,1] (0 means the paper's %v)", c.PriceFactor, costmodel.DefaultPriceFactor)
	}
	return c.Server.Validate()
}

// normalized applies defaults and validates.
func (c Config) normalized() (Config, error) {
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.PriceFactor == 0 {
		c.PriceFactor = costmodel.DefaultPriceFactor
	}
	return c, c.Validate()
}

// DefaultConfig returns a profiling config for the engine with the
// paper's defaults.
func DefaultConfig(e server.Engine, seed int64) Config {
	return Config{Server: server.DefaultConfig(e, seed), Runs: 1, PriceFactor: costmodel.DefaultPriceFactor}
}
