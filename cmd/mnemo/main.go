// Command mnemo is the consultant CLI: it profiles a key-value store
// workload on the emulated hybrid memory testbed and emits the paper's
// three-column cost/performance csv, an ASCII rendering of the estimate
// curve, and (with -slo) the advised capacity sizing.
//
// Usage:
//
//	mnemo [flags]
//
//	-workload name    Table III workload (trending, news_feed, timeline,
//	                  edit_thumbnail, trending_preview), or "-" to read a
//	                  mnemo-workload v1 csv from stdin
//	-trace file       profile a binary .mtrc trace (cmd/workloadgen
//	                  -o trace.mtrc) streamed frame by frame — traces far
//	                  larger than RAM replay in O(frame) memory; overrides
//	                  -workload
//	-store name       redislike | memcachedlike | dynamolike
//	-policy name      tiering policy (see -list-policies; default touch)
//	-compare a,b,...  profile extra policies against the same baseline
//	                  measurement; comparison lands on stderr and in -html
//	-list-policies    print the tiering-policy catalog (with each
//	                  policy's tunable parameter space) and exit
//	-config file      replay a tuned-config spec written by
//	                  cmd/mnemo-tune and verify its advised outcome
//	                  bit-identically; composes with -o for the curve
//	-slo pct          permissible slowdown, e.g. 0.10 (0 = no advice)
//	-p factor         SlowMem:FastMem per-byte price ratio (default 0.2)
//	-runs n           repetitions per baseline measurement
//	-seed n           deterministic seed
//	-keys n           key-space override (0 = Table III default)
//	-requests n       trace-length override (0 = Table III default)
//	-shards n         replay across a consistent-hash cluster of n
//	                  deployments (0 = single deployment; -html gains a
//	                  per-shard layout section when n ≥ 2)
//	-epoch-ops n      with an adaptive -policy (adaptive-freq,
//	                  adaptive-mnemot): additionally measure the advised
//	                  placement with epoch-based online migration every n
//	                  requests, static-vs-adaptive, and report the gain
//	                  (stderr + -html section)
//	-migration-cost f simulated migration charge in ns per payload byte
//	                  (with -epoch-ops; default free)
//	-migration-budget n  cap on migrated payload bytes per epoch boundary
//	                  (with -epoch-ops; 0 = unlimited)
//	-o file           write the curve csv here (default stdout, "" = skip)
//	-plot             also render the curve as an ASCII plot on stderr
//	-json             emit a JSON report summary on stdout instead of csv
//	-html file        also write a standalone HTML report (SVG charts)
//	-monitor          parse stdin as a Redis MONITOR capture (-workload -)
//	-default-size n   record size for keys a capture never writes
//	-metrics file     dump run metrics (Prometheus text format) to file
//	                  ("-" = stderr), plus the run timeline on stderr
//
// Example:
//
//	mnemo -workload trending -store redislike -slo 0.10 -o curve.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mnemo"
	"mnemo/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mnemo:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mnemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "trending", "Table III workload name, or '-' for csv on stdin")
		store      = fs.String("store", "redislike", "store engine: redislike|memcachedlike|dynamolike")
		policy     = fs.String("policy", "", "tiering policy (see -list-policies; default touch)")
		compare    = fs.String("compare", "", "comma-separated extra policies to profile on the same baselines")
		listPol    = fs.Bool("list-policies", false, "print the tiering-policy catalog and exit")
		slo        = fs.Float64("slo", 0.10, "permissible slowdown for the advisor (0 disables)")
		price      = fs.Float64("p", mnemo.DefaultPriceFactor, "SlowMem:FastMem per-byte price ratio")
		runs       = fs.Int("runs", 1, "repetitions per baseline measurement")
		seed       = fs.Int64("seed", 42, "deterministic seed")
		keys       = fs.Int("keys", 0, "key-space size override")
		requests   = fs.Int("requests", 0, "request-count override")
		shards     = fs.Int("shards", 0, "replay across a consistent-hash cluster of `n` deployments (0 and 1 = a single deployment)")
		epochOps   = fs.Int("epoch-ops", 0, "with an adaptive -policy: measure advised placement with migration every `n` requests (0 = off)")
		migCost    = fs.Float64("migration-cost", 0, "simulated migration charge in `ns` per payload byte (with -epoch-ops)")
		migBudget  = fs.Int64("migration-budget", 0, "cap on migrated payload `bytes` per epoch boundary (0 = unlimited)")
		outPath    = fs.String("o", "-", "curve csv destination ('-' = stdout, '' = skip)")
		plot       = fs.Bool("plot", false, "render the curve as an ASCII plot on stderr")
		jsonOut    = fs.Bool("json", false, "emit a JSON report summary on stdout instead of the csv")
		htmlOut    = fs.String("html", "", "also write a standalone HTML report to this file")
		tracePath  = fs.String("trace", "", "profile a binary .mtrc trace file (streamed; overrides -workload)")
		monitor    = fs.Bool("monitor", false, "with -workload -, parse stdin as a Redis MONITOR capture")
		defSize    = fs.Int("default-size", 1024, "record size for keys a MONITOR capture never writes")
		metrics    = fs.String("metrics", "", "dump run metrics (Prometheus text format) to this file ('-' = stderr)")
		configPath = fs.String("config", "", "replay a tuned-config spec (cmd/mnemo-tune JSON) and verify it bit-identically")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listPol {
		return report.PolicyCatalog(stdout)
	}
	if *configPath != "" {
		return replayTunedConfig(*configPath, *outPath, stdout, stderr)
	}
	policyName := resolvePolicyName(*policy)

	var (
		w   *mnemo.Workload
		err error
	)
	switch {
	case *tracePath != "":
		if *monitor {
			return fmt.Errorf("-trace and -monitor are mutually exclusive")
		}
		if *keys != 0 || *requests != 0 {
			return fmt.Errorf("-trace carries its own dimensions; -keys/-requests do not apply")
		}
		w, err = mnemo.OpenTrace(*tracePath)
	case *monitor:
		if *workload != "-" {
			return fmt.Errorf("-monitor requires -workload - (capture on stdin)")
		}
		w, err = mnemo.LoadRedisMonitor(stdin, *defSize)
	default:
		w, err = loadWorkload(*workload, *seed, *keys, *requests, stdin)
	}
	if err != nil {
		return err
	}
	engine, ok := mnemo.EngineByName(*store)
	if !ok {
		return fmt.Errorf("unknown store %q", *store)
	}
	opts := mnemo.Options{
		Store:                engine,
		Seed:                 *seed,
		Runs:                 *runs,
		PriceFactor:          *price,
		SLO:                  *slo,
		Policy:               policyName,
		Shards:               *shards,
		EpochOps:             *epochOps,
		MigrationCostPerByte: *migCost,
		MigrationBudget:      *migBudget,
	}
	var sink *mnemo.Sink
	if *metrics != "" {
		sink = mnemo.NewSink()
		opts.Obs = sink
		// Dump whatever was collected even when profiling fails partway —
		// a failed run's metrics are the interesting ones.
		defer func() {
			if err := dumpMetrics(*metrics, sink, stderr); err != nil {
				fmt.Fprintln(stderr, "mnemo: -metrics:", err)
			}
		}()
	}

	var rep *mnemo.Report
	var compared []*mnemo.Report
	if *compare != "" {
		rep, compared, err = runComparison(w, opts, policyName, *compare, *slo, stderr)
	} else {
		rep, err = mnemo.Profile(w, opts)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "workload %s on %s: %d keys, %d requests, dataset %s\n",
		w.Spec.Name, *store, len(w.Dataset.Records), w.RequestCount(),
		report.FormatBytes(w.Dataset.TotalBytes))
	if *shards >= 2 {
		fmt.Fprintf(stderr, "cluster: %d consistent-hash shards, stats merged deterministically\n", *shards)
	}
	fmt.Fprintf(stderr, "baselines: FastMem %.0f ops/s, SlowMem %.0f ops/s (%.2fx slowdown)\n",
		rep.Baselines.Fast.ThroughputOpsSec, rep.Baselines.Slow.ThroughputOpsSec,
		rep.Baselines.SlowdownAllSlow())

	if rep.Advice != nil {
		a := rep.Advice
		fmt.Fprintf(stderr,
			"advice (%.0f%% slowdown SLO): place %d keys (%s) in FastMem → cost %.3f of FastMem-only (%.0f%% savings)\n",
			a.MaxSlowdown*100, a.Point.KeysInFast, report.FormatBytes(a.Point.FastBytes),
			a.Point.CostFactor, a.CostSavings*100)
	}

	var adaptive *mnemo.AdaptiveComparison
	if *epochOps > 0 {
		if rep.Advice == nil {
			return fmt.Errorf("-epoch-ops needs an advised sizing to measure; set -slo > 0")
		}
		adaptive, err = mnemo.MeasureAdaptive(context.Background(), w, rep, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr,
			"adaptive (%s, epoch %d ops): static %s → adaptive %s (%+.1f%% runtime gain; %d epochs, %d moves, %s migrated, %v migration cost)\n",
			opts.Policy, *epochOps, adaptive.Static.Runtime, adaptive.Adaptive.Runtime,
			adaptive.RuntimeGain()*100, adaptive.Adaptive.Epochs, adaptive.Adaptive.MovesApplied,
			report.FormatBytes(adaptive.Adaptive.MigratedBytes), mnemo.Duration(adaptive.Adaptive.MigrationNs))
	}

	if *plot {
		if err := plotCurve(stderr, rep.Curve); err != nil {
			return err
		}
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := writeHTMLReport(f, rep, w, compared, adaptive, sink, opts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "html report written to %s\n", *htmlOut)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.Summary(16))
	}

	switch *outPath {
	case "":
		return nil
	case "-":
		return rep.Curve.WriteCSV(stdout)
	default:
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.Curve.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "curve written to %s\n", *outPath)
		return nil
	}
}

// dumpMetrics writes the sink's registry in Prometheus text format to
// path ("-" = stderr), then the run timeline on stderr.
func dumpMetrics(path string, sink *mnemo.Sink, stderr io.Writer) error {
	var out io.Writer = stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := sink.Registry().WritePrometheus(out); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(stderr, "metrics written to %s\n", path)
	}
	return report.ObsTimeline(stderr, sink)
}

// replayTunedConfig regenerates a tuned spec's workload, re-evaluates
// the tuned policy configuration and verifies the advised outcome
// matches the spec's expected block bit-identically — the reproduction
// contract of cmd/mnemo-tune. The replayed estimate curve lands on
// outPath like a normal profiling run's.
func replayTunedConfig(path, outPath string, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spec, err := mnemo.DecodeTuneSpec(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("-config %s: %w", path, err)
	}
	ev, err := mnemo.ReplayTuneSpec(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("-config %s: %w", path, err)
	}
	fmt.Fprintf(stderr, "tuned spec %s: %s (seed %d) on %s, policy %s\n",
		path, spec.Workload.Name, spec.Workload.Seed, spec.Engine, ev.PolicyName)
	fmt.Fprintf(stderr,
		"replay matches the spec bit-identically: cost %.4f of FastMem-only, slowdown %.4f (SLO %.0f%%), %s FastMem (%d keys)\n",
		ev.CostFactor, ev.Slowdown, spec.SLO*100, report.FormatBytes(ev.FastBytes), ev.KeysInFast)
	switch outPath {
	case "":
		return nil
	case "-":
		return ev.Curve().WriteCSV(stdout)
	default:
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := ev.Curve().WriteCSV(out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "curve written to %s\n", outPath)
		return nil
	}
}

// resolvePolicyName applies the -policy default.
func resolvePolicyName(policy string) string {
	if policy == "" {
		return "touch"
	}
	return policy
}

// runComparison profiles the primary policy plus every -compare policy
// through one session (a single baseline measurement), prints the
// comparison table on stderr, and returns the primary report first.
func runComparison(w *mnemo.Workload, opts mnemo.Options, primary, compare string, slo float64, stderr io.Writer) (*mnemo.Report, []*mnemo.Report, error) {
	names := []string{primary}
	for _, n := range strings.Split(compare, ",") {
		n = strings.TrimSpace(n)
		if n == "" || n == primary {
			continue
		}
		names = append(names, n)
	}
	policies := make([]mnemo.TieringPolicy, 0, len(names))
	for _, n := range names {
		p, err := mnemo.PolicyByName(n, opts.Seed)
		if err != nil {
			return nil, nil, err
		}
		policies = append(policies, p)
	}
	session, err := mnemo.NewSession(w, opts)
	if err != nil {
		return nil, nil, err
	}
	reps, err := session.Compare(context.Background(), slo, policies...)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(fmt.Sprintf("policy comparison (%d baseline measurement)", session.MeasureCount()),
		"policy", "est ops/s @ cost 0.5", "advised cost", "savings")
	for _, r := range reps {
		cost, savings := "-", "-"
		if r.Advice != nil {
			cost = fmt.Sprintf("%.3f", r.Advice.Point.CostFactor)
			savings = fmt.Sprintf("%.1f%%", r.Advice.CostSavings*100)
		}
		t.AddRow(r.Policy, fmt.Sprintf("%.0f", r.Curve.PointAtCost(0.5).EstThroughputOps), cost, savings)
	}
	if err := t.Render(stderr); err != nil {
		return nil, nil, err
	}
	return reps[0], reps, nil
}

func loadWorkload(name string, seed int64, keys, requests int, stdin io.Reader) (*mnemo.Workload, error) {
	if name == "-" {
		return mnemo.LoadWorkloadCSV(stdin)
	}
	w, err := mnemo.WorkloadByNameSized(name, seed, keys, requests)
	if err != nil {
		return nil, fmt.Errorf("%w (or '-' for csv on stdin)", err)
	}
	return w, nil
}

func plotCurve(w io.Writer, c *mnemo.Curve) error {
	var xs, ys []float64
	step := len(c.Points) / 120
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(c.Points); i += step {
		xs = append(xs, c.Points[i].CostFactor)
		ys = append(ys, c.Points[i].EstThroughputOps)
	}
	return report.Plot(w, fmt.Sprintf("%s on %s (%s ordering)", c.Workload, c.Engine, c.Ordering),
		"memory cost factor R(p)", "estimated ops/s", 72, 18,
		report.Series{Label: "estimate", X: xs, Y: ys})
}
