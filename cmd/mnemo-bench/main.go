// Command mnemo-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	mnemo-bench [flags] [experiment ...]
//
// With no arguments every experiment runs in order. Experiments:
//
//	fig1 table1 table2 fig3 fig4 fig5a fig5b fig5c
//	fig8a fig8b fig8c fig8d fig8f fig9 table4 downsample
//	ablation-llc ablation-noise ablation-knapsack ablation-anchor
//	ablation-sizeaware modeb policy-compare adaptive-compare ext-tails
//	ext-tech ycsb-core cluster-sweep tune-sweep
//
// Flags:
//
//	-quick          run at 10×-reduced scale (default is the paper's full
//	                scale: 10 000 keys × 100 000 requests per workload)
//	-seed n         deterministic seed
//	-shards n       replay every measurement across a consistent-hash
//	                cluster of n deployments (0 = single deployment;
//	                cluster-sweep defaults to 4 when unset)
//	-keys n         override the per-workload key count (0 = scale default)
//	-requests n     override the per-workload request count (0 = scale
//	                default) — -keys 10000000 -requests 100000000 is the
//	                README's 10M-key cluster recipe
//	-list-policies  print the tiering-policy catalog and exit
//	-epoch-ops n    adaptive-compare: epoch length in requests (0 = the
//	                experiment default, one 4096-op replay block)
//	-migration-cost f  adaptive-compare: simulated migration charge in ns
//	                per payload byte (0 = the experiment default 0.1)
//	-migration-budget n  adaptive-compare: cap on migrated payload bytes
//	                per epoch boundary (0 = unlimited)
//	-trace file     replay a binary .mtrc trace (streamed, O(frame)
//	                memory) against every engine on FastMem-only and
//	                SlowMem-only placements instead of running the
//	                experiment suite; honors -shards
//	-cpuprofile f   write a pprof CPU profile of the run to f
//	-memprofile f   write a pprof heap profile (taken after the run) to f
//	-metrics f      dump run metrics (Prometheus text format) to f
//	                ("-" = stderr) — written even when a sweep fails, so a
//	                failed run stays observable
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mnemo/internal/client"
	"mnemo/internal/experiments"
	"mnemo/internal/obs"
	"mnemo/internal/report"
	"mnemo/internal/server"
	"mnemo/internal/trace"
)

// experiment is one runnable unit.
type experiment struct {
	name string
	run  func(scale experiments.Scale, seed int64, w io.Writer) error
}

func renderTo[T interface{ Render(io.Writer) error }](w io.Writer, r T, err error) error {
	if err != nil {
		return err
	}
	return r.Render(w)
}

var all = []experiment{
	{"fig1", func(_ experiments.Scale, _ int64, w io.Writer) error {
		r, err := experiments.Fig1()
		return renderTo(w, r, err)
	}},
	{"table1", func(_ experiments.Scale, _ int64, w io.Writer) error {
		return experiments.Table1().Render(w)
	}},
	{"table2", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Table2(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig3", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig3(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig4", func(_ experiments.Scale, seed int64, w io.Writer) error {
		return experiments.Fig4(seed).Render(w)
	}},
	{"fig5a", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig5a(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig5b", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig5b(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig5c", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig5c(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig8a", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig8a(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig8b", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig8b(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig8c", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig8cde(s, server.RedisLike, seed)
		return renderTo(w, r, err)
	}},
	{"fig8d", func(s experiments.Scale, seed int64, w io.Writer) error {
		// Tail latencies across all three stores (Fig 8d/8e); the
		// DynamoDB-like engine carries the heaviest tails.
		for _, e := range server.Engines() {
			r, err := experiments.Fig8cde(s, e, seed)
			if err != nil {
				return err
			}
			if err := r.Render(w); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig8f", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig8f(s, seed)
		return renderTo(w, r, err)
	}},
	{"fig9", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Fig9(s, seed)
		return renderTo(w, r, err)
	}},
	{"table4", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Table4(s, seed)
		return renderTo(w, r, err)
	}},
	{"downsample", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.Downsample(s, seed, []int{2, 5, 10, 20})
		return renderTo(w, r, err)
	}},
	{"ablation-llc", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AblationLLC(s, seed)
		return renderTo(w, r, err)
	}},
	{"ablation-noise", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AblationNoise(s, seed, []float64{0, 0.01, 0.02, 0.05})
		return renderTo(w, r, err)
	}},
	{"ablation-knapsack", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AblationKnapsack(s, seed)
		return renderTo(w, r, err)
	}},
	{"ablation-anchor", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AblationAnchor(s, seed)
		return renderTo(w, r, err)
	}},
	{"ablation-sizeaware", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AblationSizeAware(s, seed)
		return renderTo(w, r, err)
	}},
	{"modeb", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.ModeB(s, seed, []int{1, 64, 1024, 16384})
		return renderTo(w, r, err)
	}},
	{"policy-compare", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.PolicyCompare(s, seed)
		return renderTo(w, r, err)
	}},
	{"adaptive-compare", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.AdaptiveCompare(s, seed)
		return renderTo(w, r, err)
	}},
	{"ycsb-core", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.YCSBCore(s, seed)
		return renderTo(w, r, err)
	}},
	{"ext-tech", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.ExtTech(s, seed)
		return renderTo(w, r, err)
	}},
	{"ext-tails", func(s experiments.Scale, seed int64, w io.Writer) error {
		for _, e := range server.Engines() {
			r, err := experiments.ExtTails(s, e, seed)
			if err != nil {
				return err
			}
			if err := r.Render(w); err != nil {
				return err
			}
		}
		return nil
	}},
	{"cluster-sweep", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.ClusterSweep(s, seed)
		return renderTo(w, r, err)
	}},
	{"tune-sweep", func(s experiments.Scale, seed int64, w io.Writer) error {
		r, err := experiments.TuneSweep(s, seed)
		return renderTo(w, r, err)
	}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mnemo-bench:", err)
		os.Exit(1)
	}
}

// runTrace replays a .mtrc trace (streamed, frame by frame) against
// every engine on all-FastMem and all-SlowMem placements — the baseline
// pair the estimate model is built from — and reports simulated
// throughput plus the host-side wall time and live heap, the two
// numbers that demonstrate the O(frame) streaming bound on traces
// larger than RAM.
func runTrace(path string, scale experiments.Scale, seed int64, stdout, stderr io.Writer) error {
	start := time.Now()
	placements := []struct {
		name string
		p    server.Placement
	}{{"FastMem", server.AllFast()}, {"SlowMem", server.AllSlow()}}
	for i, e := range server.Engines() {
		// A workload per engine: only the engine's SlowMem call reads the
		// LLC stream its FastMem call memoized, so it dies with the pair.
		w, err := trace.Open(path)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(stdout, "trace %s: %d keys, %d requests, dataset %s\n",
				w.Spec.Name, len(w.Dataset.Records), w.RequestCount(),
				report.FormatBytes(w.Dataset.TotalBytes))
		}
		for _, pl := range placements {
			cfg := server.DefaultConfig(e, seed)
			cfg.Obs = scale.Obs
			cfg.Shards = scale.Shards
			wall := time.Now()
			sts, err := client.Measure(context.Background(), w, 1, 0, cfg.Obs, []client.Leg{
				{Name: fmt.Sprintf("%s/%s", e, pl.name), Cfg: cfg, Placement: pl.p},
			})
			if err != nil {
				return err
			}
			st := sts[0]
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(stdout, "%-14s %-8s %10.0f ops/s  simulated %-12v wall %-8v heap %s\n",
				e, pl.name, st.ThroughputOpsSec, st.Runtime,
				time.Since(wall).Round(time.Millisecond),
				report.FormatBytes(int64(ms.HeapAlloc)))
		}
	}
	fmt.Fprintf(stderr, "[trace replay done in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// dumpMetrics writes the sink's registry in Prometheus text format to
// path ("-" = stderr).
func dumpMetrics(path string, sink *obs.Sink, stderr io.Writer) error {
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
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mnemo-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run at 10x-reduced scale")
	seed := fs.Int64("seed", 42, "deterministic seed")
	shards := fs.Int("shards", 0, "replay across a consistent-hash cluster of `n` deployments (0 and 1 = a single deployment)")
	keys := fs.Int("keys", 0, "override the per-workload key count (0 = scale default)")
	requests := fs.Int("requests", 0, "override the per-workload request count (0 = scale default)")
	epochOps := fs.Int("epoch-ops", 0, "adaptive-compare: epoch length in `requests` (0 = experiment default)")
	migCost := fs.Float64("migration-cost", 0, "adaptive-compare: migration charge in `ns` per payload byte (0 = experiment default)")
	migBudget := fs.Int64("migration-budget", 0, "adaptive-compare: cap on migrated payload `bytes` per epoch (0 = unlimited)")
	tracePath := fs.String("trace", "", "replay a binary .mtrc trace `file` (streamed, FastMem/SlowMem baselines per engine) instead of running experiments")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write heap profile to `file`")
	metrics := fs.String("metrics", "", "dump run metrics (Prometheus text format) to `file` ('-' = stderr), even on failure")
	listPolicies := fs.Bool("list-policies", false, "print the tiering-policy catalog and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listPolicies {
		return report.PolicyCatalog(stdout)
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	scale.Shards = *shards
	// Nonzero overrides go into the scale as given, so Validate below
	// rejects a negative one.
	if *keys != 0 {
		scale.Keys = *keys
	}
	if *requests != 0 {
		scale.Requests = *requests
	}
	scale.EpochOps = *epochOps
	scale.MigrationCostPerByte = *migCost
	scale.MigrationBudget = *migBudget
	if err := scale.Validate(); err != nil {
		return err
	}
	if *metrics != "" {
		sink := obs.NewSink()
		scale.Obs = sink
		// The dump runs on every exit path: a sweep that dies mid-run
		// still reports what it observed.
		defer func() {
			if err := dumpMetrics(*metrics, sink, stderr); err != nil {
				fmt.Fprintln(stderr, "mnemo-bench: -metrics:", err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "mnemo-bench: -memprofile:", err)
			}
			f.Close()
		}()
	}

	if *tracePath != "" {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-trace replays the given file; experiment names do not apply")
		}
		return runTrace(*tracePath, scale, *seed, stdout, stderr)
	}

	selected := fs.Args()
	if len(selected) == 0 {
		for _, e := range all {
			selected = append(selected, e.name)
		}
	}
	byName := map[string]experiment{}
	for _, e := range all {
		byName[e.name] = e
	}
	for _, name := range selected {
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		fmt.Fprintf(stdout, "\n######## %s (scale=%s seed=%d) ########\n", e.name, scale.Name, *seed)
		if err := e.run(scale, *seed, stdout); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
