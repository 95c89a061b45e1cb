package main

import (
	"mnemo"
	"mnemo/internal/server"
)

// metricSpec names one reported number. The tables below are the single
// source of metric names, units and bounds: BENCHMARK.json mirrors them
// (pinned by TestBenchmarkJSONMatchesSpec) and -compare judges with them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a simulated number: identical for equal code and seed,
	// so -compare demands equality instead of applying the bound.
	exact bool
}

// endToEnd is what a Mnemo user sees: how long the advice takes, what it
// costs the host, and what the advice says. Measured with spans off.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "advice_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "advice_wall_p75_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "advice_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "trace_req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "cost_vs_dram_pct", Unit: "%", Better: "lower", Bound: 0.10, exact: true},
}

var engineNames = func() []string {
	var names []string
	for _, e := range server.Engines() {
		names = append(names, e.String())
	}
	return names
}()

// orderPolicies are the registry orderers timed by the registry drive.
var orderPolicies = []string{"touch", "mnemot", "freqdecay", "pagesample", "knapsack", "adaptive-freq"}

// perLayer lists the traced pass's numbers, one layer per name prefix.
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string, exact bool) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better, exact: exact})
	}
	perEngine := func(base, unit string) {
		for _, e := range engineNames {
			add(base+"."+e, unit, "lower", false)
		}
	}
	add("ycsb.generate_ns_per_req", "ns", "lower", false)
	add("ycsb.pack_ns_per_req", "ns", "lower", false)
	add("ycsb.parse_monitor_ns_per_line", "ns", "lower", false)

	add("trace.write_ns_per_req", "ns", "lower", false)
	add("trace.file_bytes_per_req", "B", "lower", true)
	add("trace.validate_ns_per_req", "ns", "lower", false)
	add("trace.decode_ns_per_req", "ns", "lower", false)
	add("trace.frames", "count", "lower", true)
	add("trace.decode_alloc_kb", "KB", "lower", false)

	add("shard.split_ns_per_req", "ns", "lower", false)
	add("shard.for_cached_ns", "ns", "lower", false)
	add("shard.imbalance_pct", "%", "lower", true)

	perEngine("server.load_ns_per_key", "ns")
	perEngine("server.table_build_ns_per_key", "ns")
	add("server.reset_run_ns", "ns", "lower", false)
	add("server.serve_ns_per_req", "ns", "lower", false)
	perEngine("server.doindex_ns_per_op", "ns")
	add("server.apply_moves_ns_per_move", "ns", "lower", false)
	add("server.sim_ns_per_req.fast", "ns", "lower", true)
	add("server.sim_ns_per_req.slow", "ns", "lower", true)

	perEngine("kvstore.get_ns", "ns")
	perEngine("kvstore.put_ns", "ns")
	perEngine("kvstore.delete_ns", "ns")

	add("memsim.llc_access_ns", "ns", "lower", false)
	add("memsim.llc_hit_pct", "%", "higher", true)

	for _, path := range []string{"batched", "streamed", "perop", "epochs"} {
		add("client.run_ns_per_req."+path, "ns", "lower", false)
	}
	add("client.accum_ns_per_req", "ns", "lower", false)
	add("client.execute_mean_speedup_w2", "x", "higher", false)
	add("client.run_alloc_kb", "KB", "lower", false)

	for _, stage := range []string{"measure", "analyze", "estimate", "advise", "place", "adaptive", "session_self", "validate"} {
		add("core."+stage+"_s", "s", "lower", false)
	}
	add("core.cache_hit_pct", "%", "higher", true)
	add("core.measure_count", "count", "lower", true)

	for _, p := range orderPolicies {
		add("registry.order_ns_per_key."+p, "ns", "lower", false)
	}
	add("knapsack.exact_ns_per_item", "ns", "lower", false)
	add("knapsack.greedy_ns_per_item", "ns", "lower", false)

	add("tune.sweep_s", "s", "lower", false)
	add("tune.ns_per_eval", "ns", "lower", false)
	add("tune.evals", "count", "higher", true)
	add("tune.speedup_w2", "x", "higher", false)

	add("pool.dispatch_ns_per_task", "ns", "lower", false)

	add("report.summary_ms", "ms", "lower", false)
	add("report.html_render_ms", "ms", "lower", false)

	add("obs.sink_overhead_pct", "%", "lower", false)

	add("host.calib_ns", "ns", "lower", false)
	add("host.nproc", "count", "higher", true)
	add("bench.span_overhead_pct", "%", "lower", false)
	// Moved out of the end-to-end list by the noise rule (README.md): exact
	// for a seed, but on the workloads whose error is near zero its
	// relative swing between seeds exceeds any bound the contract allows.
	add("bench.estimate_err_pct", "%", "lower", true)
	return out
}

// opKind selects what one timed operation of a workload does.
type opKind int

const (
	opProfile  opKind = iota // mnemo.Profile + Summary + CSV, per engine
	opStream                 // ValidateTrace + OpenTrace + the same Profile
	opAdaptive               // Profile + MeasureAdaptive
	opTune                   // mnemo.Tune
)

// workloadDef is one benchmark workload. keys/requests are the full
// scale; -tiny replaces them with tinyKeys × tinyRequests.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	kind    opKind
	preset  string // built-in workload name; "" means a MONITOR capture
	keys    int
	reqs    int
	engines []mnemo.Engine
	opts    mnemo.Options // Seed and Store are set per operation
}

const (
	tinyKeys     = 200
	tinyRequests = 5000
	slo          = 0.10
	tuneBudget   = 32
	// tuneSearchSeed is fixed so every seed's sweep explores the same
	// parameter vectors; only the trace and the noise change with -seed.
	tuneSearchSeed = 7
	epochOps       = 4096
	// validateSamples is the number of held-out measured points the
	// estimate curve is checked against.
	validateSamples = 6
)

var workloads = []workloadDef{
	{
		Name: "static_inmem",
		Why:  "headline path: big in-memory read-mostly trace, hot set far beyond the modelled LLC; the batched replay kernel dominates and trace/shard/tune/adaptive code is bypassed",
		kind: opProfile, preset: "trending", keys: 10000, reqs: 2000000,
		engines: []mnemo.Engine{mnemo.RedisLike},
		opts:    mnemo.Options{Policy: "mnemot", SLO: slo},
	},
	{
		Name: "stream_mtrc",
		Why:  "the same trace replayed from a .mtrc file; differs from static_inmem only by frame decode, CRC and the prefetch goroutine",
		kind: opStream, preset: "trending", keys: 10000, reqs: 2000000,
		engines: []mnemo.Engine{mnemo.RedisLike},
		opts:    mnemo.Options{Policy: "mnemot", SLO: slo},
	},
	{
		Name: "shard_cluster",
		Why:  "the same trace on a 4-shard cluster; exercises split, sharded deployment, worker pool and merge, the honest baseline for multi-core work",
		kind: opProfile, preset: "trending", keys: 10000, reqs: 2000000,
		engines: []mnemo.Engine{mnemo.RedisLike},
		opts:    mnemo.Options{Policy: "mnemot", SLO: slo, Shards: 4},
	},
	{
		Name: "capture_perop",
		Why:  "Redis MONITOR capture with SETs and DELs on all three engines; deletes force the per-op replay path and the real store engines, dataset fits the LLC",
		kind: opProfile, keys: 2000, reqs: 300000,
		engines: mnemo.Engines(),
		opts:    mnemo.Options{Policy: "touch", SLO: slo},
	},
	{
		Name: "adaptive_drift",
		Why:  "drifting hot set under adaptive-freq epoch migration; the epoch loop, observer, ApplyMoves and table re-price do the work",
		kind: opAdaptive, preset: "hot_drift", keys: 10000, reqs: 400000,
		engines: []mnemo.Engine{mnemo.RedisLike},
		opts:    mnemo.Options{Policy: "adaptive-freq", SLO: slo, EpochOps: epochOps, MigrationCostPerByte: 0.1},
	},
	{
		Name: "tune_sweep",
		Why:  "32-candidate policy search over one shared baseline; ordering, knapsack DP, estimate and the artifact cache dominate while replay does little",
		kind: opTune, preset: "news_feed", keys: 1000, reqs: 100000,
		engines: []mnemo.Engine{mnemo.RedisLike},
		opts:    mnemo.Options{SLO: slo},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
