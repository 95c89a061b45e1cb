package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/report"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Adaptive-compare defaults. The epoch length is one replay block (the
// smallest epoch the chunked kernel serves); the migration charge
// corresponds to a ~10 GB/s copy path between memory nodes.
const (
	DefaultAdaptiveEpochOps  = 4096
	DefaultMigrationCostNsPB = 0.1
	// adaptiveFastFraction is the FastMem byte budget every policy gets,
	// as a fraction of the dataset: small enough that a static ordering
	// cannot cover a drifting hot set, large enough that an adaptive one
	// can chase it.
	adaptiveFastFraction = 0.35
	// adaptiveMinEpochs keeps the drift slow relative to the epoch
	// clock: the workload is stretched so one full hot-set sweep spans
	// at least this many epochs, or migration would always arrive too
	// late to matter.
	adaptiveMinEpochs = 8
)

// AdaptiveCompareRow is one policy's measured outcome on the drift
// workload under a fixed FastMem byte budget.
type AdaptiveCompareRow struct {
	Policy string
	// Adaptive marks policies that migrated mid-run (core.EpochPolicy);
	// static policies keep their initial placement for the whole trace.
	Adaptive      bool
	Runtime       simclock.Duration
	ThroughputOps float64
	Epochs        int
	Moves         int
	MigratedBytes int64
	MigrationNs   float64
	// EpochTraffic is the per-epoch migration ledger (empty for static
	// rows).
	EpochTraffic []client.EpochTraffic
}

// AdaptiveCompareResult pits every registered policy — static and
// adaptive — against the same drifting workload and FastMem budget, with
// migration time charged on the simulated clock. This is the experiment
// DESIGN.md §15's claim rests on: online migration buys back what a
// static placement loses to non-stationarity.
type AdaptiveCompareResult struct {
	Workload     string
	Engine       server.Engine
	EpochOps     int
	CostPerByte  float64
	FastFraction float64
	Rows         []AdaptiveCompareRow
}

// BestStatic returns the lowest-runtime static row (nil if none).
func (r *AdaptiveCompareResult) BestStatic() *AdaptiveCompareRow { return r.best(false) }

// BestAdaptive returns the lowest-runtime adaptive row (nil if none).
func (r *AdaptiveCompareResult) BestAdaptive() *AdaptiveCompareRow { return r.best(true) }

func (r *AdaptiveCompareResult) best(adaptive bool) *AdaptiveCompareRow {
	var best *AdaptiveCompareRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Adaptive != adaptive {
			continue
		}
		if best == nil || row.Runtime < best.Runtime {
			best = row
		}
	}
	return best
}

// AdaptiveWins reports whether some adaptive policy beats every static
// policy on runtime, migration cost included.
func (r *AdaptiveCompareResult) AdaptiveWins() bool {
	ad, st := r.BestAdaptive(), r.BestStatic()
	return ad != nil && st != nil && ad.Runtime < st.Runtime
}

// AdaptiveCompare measures every cataloged policy on the hot-set-drift
// workload under one shared FastMem byte budget. Static policies place
// once from their whole-trace ordering; adaptive policies start from the
// same kind of placement and then migrate at every EpochOps boundary,
// paying CostPerByte on the simulated clock for every byte moved.
func AdaptiveCompare(scale Scale, seed int64) (*AdaptiveCompareResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	epochOps := scale.EpochOps
	if epochOps == 0 {
		epochOps = DefaultAdaptiveEpochOps
	}
	costPB := scale.MigrationCostPerByte
	if costPB == 0 {
		costPB = DefaultMigrationCostNsPB
	}
	spec := ycsb.HotDrift(seed)
	spec.Keys = scale.Keys
	spec.Requests = scale.Requests
	if min := adaptiveMinEpochs * epochOps; spec.Requests < min {
		spec.Requests = min
	}
	w, err := ycsb.Generate(spec)
	if err != nil {
		return nil, err
	}
	cfg := scale.coreConfig(server.RedisLike, seed)
	cfg.Server.MigrationCostPerByte = costPB
	res := &AdaptiveCompareResult{
		Workload:     w.Spec.Name,
		Engine:       server.RedisLike,
		EpochOps:     epochOps,
		CostPerByte:  costPB,
		FastFraction: adaptiveFastFraction,
	}
	ctx := context.Background()
	var pe core.PlacementEngine
	budget := int64(math.Floor(adaptiveFastFraction * float64(totalBytes(w))))
	for _, e := range registry.Entries() {
		pol := e.New(seed)
		ord, err := pol.Order(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: ordering under %q: %w", e.Name, err)
		}
		placement, err := pe.PlacementFor(ord, core.CurvePoint{KeysInFast: prefixForBudget(ord, budget)})
		if err != nil {
			return nil, err
		}
		runCfg := cfg.Server
		runCfg.Adaptive, runCfg.EpochOps = nil, 0
		ep, adaptive := core.AsEpochPolicy(pol)
		if adaptive {
			runCfg.Adaptive, runCfg.EpochOps = ep, epochOps
		}
		st, err := client.ExecuteMeanCtx(ctx, runCfg, w, placement, cfg.Runs, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: measuring %q: %w", e.Name, err)
		}
		res.Rows = append(res.Rows, AdaptiveCompareRow{
			Policy:        e.Name,
			Adaptive:      adaptive,
			Runtime:       st.Runtime,
			ThroughputOps: st.ThroughputOpsSec,
			Epochs:        st.Epochs,
			Moves:         st.MovesApplied,
			MigratedBytes: st.MigratedBytes,
			MigrationNs:   st.MigrationNs,
			EpochTraffic:  st.EpochTraffic,
		})
	}
	return res, nil
}

// totalBytes sums the dataset's payload bytes.
func totalBytes(w *ycsb.Workload) int64 {
	var total int64
	for _, r := range w.Dataset.Records {
		total += int64(r.Size)
	}
	return total
}

// prefixForBudget returns the longest ordering prefix whose payload
// bytes fit the FastMem budget — the same prefix semantics as the
// estimate curve's points.
func prefixForBudget(ord core.Ordering, budget int64) int {
	var used int64
	for i, k := range ord.Keys {
		if used += int64(k.Size); used > budget {
			return i
		}
	}
	return len(ord.Keys)
}

// Render implements the experiment output.
func (r *AdaptiveCompareResult) Render(w io.Writer) error {
	t := report.NewTable(
		fmt.Sprintf("Adaptive vs static tiering on %s (%s; FastMem budget %.0f%% of bytes, epoch %d ops, migration %.2f ns/B)",
			r.Workload, engineLabel(r.Engine), r.FastFraction*100, r.EpochOps, r.CostPerByte),
		"policy", "mode", "runtime", "ops/s", "epochs", "moves", "migrated", "migration cost")
	for _, row := range r.Rows {
		mode := "static"
		if row.Adaptive {
			mode = "adaptive"
		}
		t.AddRow(row.Policy, mode, row.Runtime.String(),
			fmt.Sprintf("%.0f", row.ThroughputOps),
			fmt.Sprintf("%d", row.Epochs), fmt.Sprintf("%d", row.Moves),
			fmt.Sprintf("%.1f KiB", float64(row.MigratedBytes)/1024),
			simclock.Duration(row.MigrationNs).String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if ad, st := r.BestAdaptive(), r.BestStatic(); ad != nil && st != nil {
		gain := 0.0
		if ad.Runtime > 0 {
			gain = float64(st.Runtime)/float64(ad.Runtime) - 1
		}
		fmt.Fprintf(w, "best adaptive %q vs best static %q: %+.1f%% runtime gain (migration charged)\n",
			ad.Policy, st.Policy, gain*100)
	}
	return nil
}
