// Package mnemo is the public API of the Mnemo reproduction — a memory
// capacity sizing and data tiering consultant for key-value stores on
// hybrid memory systems (Doudali & Gavrilovska, IPDPS 2019).
//
// Mnemo answers one question: given a key-value store workload and a
// hybrid memory system with a fast tier (DRAM) and a cheaper, slower tier
// (NVM), what is the minimum FastMem capacity that keeps performance
// within a target SLO — and how much memory cost does that save?
//
// The pipeline (see internal/core for the engines):
//
//	w, _ := mnemo.WorkloadByName("trending", 42)
//	rep, _ := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, SLO: 0.10})
//	fmt.Println(rep.Advice.Point.CostFactor) // e.g. 0.36 of DRAM-only cost
//	rep.Curve.WriteCSV(os.Stdout)            // the paper's 3-column output
//
// Because commercial hybrid-memory hardware and the paper's store
// binaries are not assumed available, the "physical system" behind
// Profile is an emulated testbed with the paper's Table I memory
// parameters and three from-scratch store engines calibrated to the
// sensitivities the paper measures for Redis, Memcached and
// DynamoDB-local. See DESIGN.md for the substitution map.
package mnemo

import (
	"context"
	"fmt"
	"io"
	"math"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/costmodel"
	"mnemo/internal/obs"
	"mnemo/internal/registry"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// Re-exported store engines.
const (
	// RedisLike is the single-threaded chained-dict engine (≈1.4×
	// SlowMem sensitivity on thumbnail workloads).
	RedisLike = server.RedisLike
	// MemcachedLike is the slab/LRU engine with worker-thread memory
	// parallelism (barely SlowMem-sensitive).
	MemcachedLike = server.MemcachedLike
	// DynamoLike is the B-tree engine with request-path amplification
	// (severely SlowMem-sensitive).
	DynamoLike = server.DynamoLike
)

// Engine selects a key-value store engine.
type Engine = server.Engine

// Workload is a dataset plus request trace — Mnemo's workload descriptor.
type Workload = ycsb.Workload

// WorkloadSpec parameterizes workload generation.
type WorkloadSpec = ycsb.Spec

// DistSpec parameterizes a request distribution within a WorkloadSpec.
type DistSpec = ycsb.DistSpec

// DistKind selects a request distribution (Fig 3).
type DistKind = ycsb.DistKind

// Request distributions. HotSetDrift and PhaseChange are the
// non-stationary drift distributions adaptive tiering is evaluated on
// (DESIGN.md §15).
const (
	Uniform          = ycsb.Uniform
	Zipfian          = ycsb.Zipfian
	ScrambledZipfian = ycsb.ScrambledZipfian
	Hotspot          = ycsb.Hotspot
	Latest           = ycsb.Latest
	HotSetDrift      = ycsb.HotSetDrift
	PhaseChange      = ycsb.PhaseChange
)

// SizeKind selects a record-size distribution (Fig 4).
type SizeKind = ycsb.SizeKind

// Record-size distributions.
const (
	SizeThumbnail       = ycsb.SizeThumbnail
	SizeTextPost        = ycsb.SizeTextPost
	SizePhotoCaption    = ycsb.SizePhotoCaption
	SizeTrendingPreview = ycsb.SizeTrendingPreview
	SizeFixed1KB        = ycsb.SizeFixed1KB
	SizeFixed10KB       = ycsb.SizeFixed10KB
	SizeFixed100KB      = ycsb.SizeFixed100KB
)

// Report is the output of a profiling session: measured baselines, the
// key ordering, the cost/performance curve and (if an SLO was set) the
// advised sizing.
type Report = core.Report

// Curve is the estimated cost/performance trade-off (Fig 5's blue line).
type Curve = core.Curve

// CurvePoint is one sizing of the curve.
type CurvePoint = core.CurvePoint

// Advice is the advisor's minimum-cost SLO-satisfying sizing.
type Advice = core.Advice

// Ordering is a FastMem-priority key ordering.
type Ordering = core.Ordering

// DefaultPriceFactor is the paper's SlowMem:FastMem price ratio p = 0.2.
const DefaultPriceFactor = costmodel.DefaultPriceFactor

// Duration is simulated time — the unit of every runtime a Report
// carries.
type Duration = simclock.Duration

// Second is one second of simulated time.
const Second = simclock.Second

// RunStats is one measured execution's statistics, including the
// epoch-migration telemetry of adaptive runs (Epochs, MovesApplied,
// MigratedBytes, MigrationNs, EpochTraffic).
type RunStats = client.RunStats

// EpochTraffic is one epoch boundary's migration ledger.
type EpochTraffic = client.EpochTraffic

// Sink collects a profiling session's observability stream: counters,
// gauges and stage-latency histograms in a metrics registry, plus an
// ordered run journal of lifecycle events (measurements, stage spans,
// cache hits, placements). A nil *Sink — the zero
// state of Options.Obs — records nothing and adds no measurable cost;
// simulation results are bit-identical with and without one attached.
//
// Read the collected state via Sink.Registry (WritePrometheus,
// Snapshot) and Sink.Journal (Events).
type Sink = obs.Sink

// NewSink builds a live observability sink with a fresh metrics
// registry and a bounded run journal.
func NewSink() *Sink { return obs.NewSink() }

// Options configures a profiling session. The zero value plus a Store is
// valid: one run per baseline, p = 0.2, the Table I machine, and default
// measurement noise.
type Options struct {
	// Store selects the engine to profile (RedisLike by default).
	Store Engine
	// Seed makes the session reproducible.
	Seed int64
	// Runs is how many times each baseline execution is repeated and
	// averaged (default 1).
	Runs int
	// PriceFactor is the relative per-byte price of SlowMem (default
	// 0.2, the paper's estimate).
	PriceFactor float64
	// SLO, when positive, asks the advisor for the cheapest sizing whose
	// estimated slowdown from FastMem-only stays within it (the paper
	// uses 0.10).
	SLO float64
	// Policy names the tiering policy that orders keys for FastMem: any
	// name from Policies(), e.g. "touch" (stand-alone Mnemo, the
	// default), "mnemot", "tahoe", "freqdecay", "pagesample" or
	// "knapsack". Empty means "touch".
	Policy string
	// PolicyParams tunes the named Policy: a (possibly partial) parameter
	// vector over its registered parameter space — e.g.
	// {"decay": 0.25} for "freqdecay" or {"anchor": 0.17} for
	// "knapsack". Params absent from the vector keep their defaults;
	// unknown names, out-of-bounds values and vectors on policies
	// without a tunable surface are rejected. See Policies() for each
	// policy's space, and Tune to search it automatically.
	PolicyParams map[string]float64
	// NoiseSigma overrides the per-request measurement noise; negative
	// disables it, and NaN, +Inf or above server.MaxNoiseSigma is rejected.
	NoiseSigma float64
	// SizeAwareEstimate enables the per-size-class estimate extension —
	// a reproduction improvement over the paper's global-average model
	// that matters for MnemoT orderings on mixed record sizes.
	SizeAwareEstimate bool
	// Obs, when non-nil, receives the session's observability stream —
	// metrics, stage spans and the run journal (see NewSink). nil keeps
	// profiling completely uninstrumented.
	Obs *Sink
	// Shards replays every measurement across a consistent-hash cluster
	// of N deployments (multi-core replay with a deterministic merge;
	// DESIGN.md §13). 0 and 1 both mean one single deployment.
	Shards int
	// EpochOps enables adaptive (epoch-based online migration) replay on
	// measured executions: the trace is served in EpochOps-request
	// epochs and the policy may migrate records between tiers at each
	// boundary (DESIGN.md §15). Requires an adaptive Policy (one
	// implementing EpochPolicy, e.g. "adaptive-freq" or
	// "adaptive-mnemot"). 0 — the default — keeps the static pipeline
	// bit-identical. Baselines and validation sweeps always measure
	// statically regardless.
	EpochOps int
	// MigrationCostPerByte is the simulated-time charge, in nanoseconds
	// per payload byte, for records migrated between tiers mid-run.
	// Only meaningful with EpochOps ≥ 1; 0 makes migration free.
	MigrationCostPerByte float64
	// MigrationBudget caps the payload bytes migrated per epoch
	// boundary; excess moves are dropped. Only meaningful with
	// EpochOps ≥ 1; 0 means unlimited.
	MigrationBudget int64
}

// coreConfig validates the options and assembles the core config
// together with the tiering policy, resolved once and counted against
// sink (nil leaves the resolution uncounted). It checks only the
// facade's own rules; every range rule on a run knob is
// core.Config.Validate's, so the knob names in its errors are the
// Options field names.
func (o Options) coreConfig(sink *Sink) (core.Config, core.TieringPolicy, error) {
	if _, ok := EngineByName(o.Store.String()); !ok {
		return core.Config{}, nil, fmt.Errorf("mnemo: unknown store engine %v", o.Store)
	}
	if !(o.SLO >= 0) { // NaN fails too
		return core.Config{}, nil, fmt.Errorf("mnemo: SLO %v must be non-negative (0 disables the advisor)", o.SLO)
	}
	// core lets migration knobs sit inert without epochs; a caller of the
	// facade who sets them almost certainly forgot EpochOps.
	if (o.MigrationCostPerByte > 0 || o.MigrationBudget > 0) && o.EpochOps == 0 {
		return core.Config{}, nil, fmt.Errorf("mnemo: migration knobs (MigrationCostPerByte/MigrationBudget) require EpochOps ≥ 1, got EpochOps 0")
	}
	cfg := core.DefaultConfig(o.Store, o.Seed)
	if o.Runs != 0 {
		cfg.Runs = o.Runs
	}
	if o.PriceFactor != 0 {
		cfg.PriceFactor = o.PriceFactor
	}
	// A finite negative σ means "off"; NaN and ±Inf go through to
	// core.Config.Validate, which rejects them.
	if o.NoiseSigma < 0 && !math.IsInf(o.NoiseSigma, -1) {
		cfg.Server.NoiseSigma = 0
	} else if o.NoiseSigma != 0 {
		cfg.Server.NoiseSigma = o.NoiseSigma
	}
	cfg.SizeAwareEstimate = o.SizeAwareEstimate
	cfg.Server.Obs = o.Obs
	cfg.Server.Shards = o.Shards
	cfg.Server.EpochOps = o.EpochOps
	cfg.Server.MigrationCostPerByte = o.MigrationCostPerByte
	cfg.Server.MigrationBudget = o.MigrationBudget
	if err := cfg.Validate(); err != nil {
		return core.Config{}, nil, fmt.Errorf("mnemo: %w", err)
	}
	pol, err := o.resolvePolicy(sink)
	if err != nil {
		return core.Config{}, nil, err
	}
	if o.EpochOps > 0 {
		ep, ok := core.AsEpochPolicy(pol)
		if !ok {
			return core.Config{}, nil, fmt.Errorf("mnemo: EpochOps %d requires an adaptive policy (e.g. \"adaptive-freq\", \"adaptive-mnemot\"), but policy %q is static-only", o.EpochOps, pol.Name())
		}
		cfg.Server.Adaptive = ep
	}
	return cfg, pol, nil
}

// resolvePolicy resolves the options' tiering policy — Policy by name
// through the registry, or the "touch" default — counting the
// resolution against the sink (mnemo_registry_policy_resolutions_total).
func (o Options) resolvePolicy(sink *Sink) (core.TieringPolicy, error) {
	name := o.Policy
	if name == "" {
		name = "touch"
	}
	var (
		p   core.TieringPolicy
		err error
	)
	if len(o.PolicyParams) > 0 {
		p, err = registry.NewParamsObs(name, o.Seed, o.PolicyParams, sink)
	} else {
		p, err = registry.NewObs(name, o.Seed, sink)
	}
	if err != nil {
		return nil, fmt.Errorf("mnemo: %w", err)
	}
	return p, nil
}

// Profile runs the full Mnemo pipeline on the workload: real baseline
// executions, pattern analysis, the analytical estimate curve, and (when
// Options.SLO > 0) the advised sweet spot.
func Profile(w *Workload, opts Options) (*Report, error) {
	return ProfileContext(context.Background(), w, opts)
}

// ProfileContext is Profile with cancellation: a cancelled or expired
// context aborts the baseline sweeps mid-run and returns the context's
// error. Since the testbed advances simulated time, cancellation takes
// effect within microseconds of wall time.
func ProfileContext(ctx context.Context, w *Workload, opts Options) (*Report, error) {
	cfg, pol, err := opts.coreConfig(opts.Obs)
	if err != nil {
		return nil, err
	}
	return core.Profile(ctx, cfg, w, pol, opts.SLO)
}

// ProfileWithTiering runs the pipeline following an external tiering
// solution's key ordering (deployment mode of Fig 2b): tieredKeys lists
// the keys an existing tiering tool would place in DRAM, in priority
// order.
func ProfileWithTiering(w *Workload, tieredKeys []string, opts Options) (*Report, error) {
	return ProfileWithTieringContext(context.Background(), w, tieredKeys, opts)
}

// ProfileWithTieringContext is ProfileWithTiering with cancellation.
// The key list is checked against the workload before anything is
// measured, so an unknown or repeated key fails at once.
func ProfileWithTieringContext(ctx context.Context, w *Workload, tieredKeys []string, opts Options) (*Report, error) {
	cfg, _, err := opts.coreConfig(nil)
	if err != nil {
		return nil, err
	}
	if _, err := core.ExternalOrdering(w, tieredKeys); err != nil {
		return nil, err
	}
	return core.Profile(ctx, cfg, w, core.External(tieredKeys), opts.SLO)
}

// AdaptiveComparison pairs a static and an adaptive measured execution
// of the same placement on the same workload: the adaptive run migrates
// records at every EpochOps boundary with copy time charged on the
// simulated clock, the static run keeps the initial placement.
type AdaptiveComparison struct {
	Static   RunStats
	Adaptive RunStats
}

// RuntimeGain is the adaptive run's relative runtime win over the
// static run (positive = adaptive faster, migration cost included).
func (c AdaptiveComparison) RuntimeGain() float64 {
	if c.Adaptive.Runtime == 0 {
		return 0
	}
	return float64(c.Static.Runtime)/float64(c.Adaptive.Runtime) - 1
}

// MeasureAdaptive executes the report's advised placement twice — once
// statically, once with the configured adaptive policy migrating at
// epoch boundaries — and returns both measurements. It requires
// Options.EpochOps ≥ 1 with an adaptive Policy, and a report carrying
// advice (Options.SLO > 0). See DESIGN.md §15.
func MeasureAdaptive(ctx context.Context, w *Workload, rep *Report, opts Options) (*AdaptiveComparison, error) {
	cfg, _, err := opts.coreConfig(nil)
	if err != nil {
		return nil, err
	}
	if cfg.Server.Adaptive == nil || cfg.Server.EpochOps <= 0 {
		return nil, fmt.Errorf("mnemo: MeasureAdaptive requires EpochOps ≥ 1 and an adaptive policy, got EpochOps %d with policy %q", opts.EpochOps, opts.Policy)
	}
	if rep.Advice == nil {
		return nil, fmt.Errorf("mnemo: MeasureAdaptive requires a report with advice (set Options.SLO)")
	}
	placement, err := core.PlacementFor(rep.Ordering, rep.Advice.Point)
	if err != nil {
		return nil, err
	}
	// The two legs share one LLC walk per trace: migration leaves LLC
	// residency alone.
	runs, err := client.Measure(ctx, w, cfg.Runs, 0, cfg.Server.Obs, []client.Leg{
		{Name: "mnemo: static measured run", Cfg: cfg.Server.Static(), Placement: placement},
		{Name: "mnemo: adaptive measured run", Cfg: cfg.Server, Placement: placement},
	})
	if err != nil {
		return nil, err
	}
	return &AdaptiveComparison{Static: runs[0], Adaptive: runs[1]}, nil
}

// TieringPolicy orders a workload's keys by FastMem priority — the seam
// every orderer (built-in or user-supplied) plugs into. Implementations
// must return an ordering covering each workload key exactly once.
type TieringPolicy = core.TieringPolicy

// Session is the staged profiling pipeline (Measure → Analyze →
// Estimate → Place) with cached, individually re-runnable artifacts:
// baselines are measured once per session however many policies are
// profiled, orderings and curves are cached per policy, and Advise
// re-reads a cached curve without touching the testbed. Construct with
// NewSession.
type Session = core.Session

// NewSession opens a staged profiling session on the workload. Use
// Session.Compare to profile several policies against one baseline
// measurement, or drive the stages individually.
func NewSession(w *Workload, opts Options) (*Session, error) {
	cfg, _, err := opts.coreConfig(nil)
	if err != nil {
		return nil, err
	}
	return core.NewSession(cfg, w)
}

// PolicyInfo describes one registered tiering policy: its name and
// description, its constructors, and its tunable parameter space
// (Params, empty for fixed policies).
type PolicyInfo = registry.Entry

// ParamInfo describes one tunable parameter of a policy: inclusive
// bounds, the default the plain policy uses, and the scale a search
// should explore it on.
type ParamInfo = registry.Param

// Policies lists the registered tiering policies, sorted by name.
func Policies() []PolicyInfo { return registry.Entries() }

// PolicyByName constructs a registered tiering policy ("standalone" is
// accepted as an alias for "touch"). The seed feeds policies with
// internal randomness, e.g. the page-sampling profiler.
func PolicyByName(name string, seed int64) (TieringPolicy, error) {
	p, err := registry.New(name, seed)
	if err != nil {
		return nil, fmt.Errorf("mnemo: %w", err)
	}
	return p, nil
}

// ExternalPolicy wraps an existing tiering solution's key priority list
// as a policy (deployment mode of Fig 2b), for use with Session.Compare
// alongside registered policies.
func ExternalPolicy(tieredKeys []string) TieringPolicy { return core.External(tieredKeys) }

// Advise re-runs the advisor on an existing curve with a different SLO,
// without re-profiling.
func Advise(c *Curve, maxSlowdown float64) (Advice, error) {
	return core.Advise(c, maxSlowdown)
}

// AdviseLatency finds the cheapest sizing whose estimated average request
// latency stays within an absolute budget (nanoseconds) — the way
// client-facing SLAs are usually written. Advice.Satisfiable is false
// when even all-FastMem misses the budget.
func AdviseLatency(c *Curve, maxAvgLatencyNs float64) (Advice, error) {
	return core.AdviseLatency(c, maxAvgLatencyNs)
}

// TailPoint is a predicted latency-percentile triple for one sizing.
type TailPoint = core.TailPoint

// EstimateTails predicts latency percentiles (p50/p95/p99) for the
// sizings with the given numbers of keys in FastMem, using the report's
// baseline latency histograms — the tail-estimation extension the
// published model does not attempt.
func EstimateTails(rep *Report, keysInFast []int) ([]TailPoint, error) {
	var te core.TailEstimator
	return te.EstimateCurve(rep.Baselines, rep.Ordering, keysInFast)
}

// CostReduction exposes the paper's cost model R(p): the relative memory
// cost of holding fastBytes of a totalBytes dataset in FastMem when
// SlowMem costs p per byte relative to FastMem.
func CostReduction(fastBytes, totalBytes int64, p float64) float64 {
	return costmodel.CostReduction(fastBytes, totalBytes, p)
}

// CloudShare reports the estimated memory fraction of one cloud VM's
// hourly price (the bars of the paper's Fig 1).
type CloudShare = costmodel.ShareRow

// CloudMemoryShares fits the embedded 2018-era VM catalogs of AWS, GCP
// and Azure by least squares and reports the memory cost share of every
// memory-optimized instance — the analysis motivating the paper (memory
// is 60–85% of VM cost there; 54–90% on these catalogs: AWS cache.r5
// ≈55%, Azure M128ms ≈90%).
func CloudMemoryShares() ([]CloudShare, error) { return costmodel.Fig1() }

// PriceFactorFromHardware derives the price factor p from actual per-GB
// prices of the slow and fast memory technologies, as a Mnemo user with
// real hardware quotes would.
func PriceFactorFromHardware(slowPerGB, fastPerGB float64) (float64, error) {
	return costmodel.PriceFactorFromHardware(slowPerGB, fastPerGB)
}

// WorkloadByName generates a built-in workload: one of the paper's
// Table III traces ("trending", "news_feed", "timeline",
// "edit_thumbnail", "trending_preview"), a stock YCSB core workload
// ("ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d", "ycsb_f") or a drift workload
// ("hot_drift", "phase_shift"); AllWorkloadNames lists them.
func WorkloadByName(name string, seed int64) (*Workload, error) {
	w, err := registry.ResolveWorkload(name, seed, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("mnemo: %w", err)
	}
	return w, nil
}

// WorkloadByNameSized is WorkloadByName with key-space and trace-length
// overrides; zero keeps the preset's defaults.
func WorkloadByNameSized(name string, seed int64, keys, requests int) (*Workload, error) {
	w, err := registry.ResolveWorkload(name, seed, keys, requests)
	if err != nil {
		return nil, fmt.Errorf("mnemo: %w", err)
	}
	return w, nil
}

// WorkloadNames lists the Table III workload names.
func WorkloadNames() []string {
	specs := ycsb.TableIII(0)
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// AllWorkloadNames lists every built-in workload: the Table III
// presets, the YCSB core workloads, then the drift workloads.
func AllWorkloadNames() []string { return ycsb.AllWorkloadNames() }

// GenerateWorkload builds a workload from a custom spec.
func GenerateWorkload(spec WorkloadSpec) (*Workload, error) { return ycsb.Generate(spec) }

// WorkloadProfile is the descriptive summary of a trace (hot-set sizes,
// access skew, record-size range) — the a-priori workload knowledge the
// paper's approach builds on.
type WorkloadProfile = ycsb.Profile

// DescribeWorkload summarizes a trace without running anything.
func DescribeWorkload(w *Workload) WorkloadProfile { return ycsb.Describe(w) }

// LoadWorkloadCSV reads a workload trace in the mnemo-workload v1 CSV
// format (as produced by Workload.WriteCSV or cmd/workloadgen).
func LoadWorkloadCSV(r io.Reader) (*Workload, error) { return ycsb.ReadCSV(r) }

// OpenTrace opens a binary .mtrc trace (as produced by cmd/workloadgen
// -o trace.mtrc, or WriteTrace) as a streamed workload: the dataset is
// reconstructed from the schema header and the request trace stays on
// disk, replayed frame by frame in O(frame) resident memory — traces
// far larger than RAM profile fine. Streamed workloads measure through
// every pipeline, adaptive replay (Options.EpochOps) included; only
// Workload.Downsample needs the trace in memory.
func OpenTrace(path string) (*Workload, error) { return trace.Open(path) }

// WriteTrace spills a workload's trace to a binary .mtrc file, whatever
// its in-memory backing. Key names round-trip (generated canonical
// names are elided from the file; imported names are carried per key).
func WriteTrace(w *Workload, path string) error { return trace.WriteWorkload(w, path) }

// ValidateTrace schema-checks a .mtrc file — every header field, frame
// checksum, key index and op kind — without building a workload, and
// reports its dimensions. It shares no decode code with the streaming
// reader, so the two implementations cross-check each other.
func ValidateTrace(path string) (TraceSummary, error) {
	s, err := trace.ValidateFile(path)
	if err != nil {
		return TraceSummary{}, err
	}
	return TraceSummary{Name: s.Header.Name, Keys: s.Header.Keys,
		Requests: int64(s.Header.Requests), Frames: s.Frames,
		ReadWriteFrames: s.RWFrames}, nil
}

// TraceSummary reports a validated .mtrc trace's dimensions.
type TraceSummary struct {
	Name            string
	Keys            int
	Requests        int64
	Frames          int
	ReadWriteFrames int
}

// LoadRedisMonitor imports a workload descriptor from a Redis MONITOR
// capture — the practical way to collect a production cache's key and
// request-type sequence. Keys never written in the capture get
// defaultSize bytes (MONITOR does not show read payloads).
func LoadRedisMonitor(r io.Reader, defaultSize int) (*Workload, error) {
	return ycsb.ParseRedisMonitor(r, defaultSize)
}

// Engines lists the available store engines.
func Engines() []Engine { return server.Engines() }

// EngineByName resolves "redislike", "memcachedlike" or "dynamolike".
func EngineByName(name string) (Engine, bool) { return server.EngineByName(name) }
