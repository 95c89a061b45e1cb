package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mnemo"
	"mnemo/internal/stats"
)

// runConfig is one benchmark run: one workload, one seed, one pass.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed window
	trace    bool    // the traced pass: per-layer metrics instead of end-to-end
	tiny     bool    // smoke-test scale
	tmpDir   string  // where .mtrc files and the span file go
	spansOut string  // span file of the traced pass ("" = under tmpDir)
	setups   int     // set-up repetitions (setup_s is their median)
	minOps   int     // timed operations at least, whatever the window
	// afterSetUp, when set, runs on the final inputs before the warm-up
	// operations: the tests use it to damage the spilled trace.
	afterSetUp func(in *inputs) error
}

const (
	warmUps        = 3
	defaultSetups  = 3
	defaultMinOps  = 8
	defaultSeconds = 12 // BENCHMARK.json's run_seconds
)

// metricValue is one reported number, as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is what a run prints beside the result: the digest two commits
// are diffed by, and why operations failed.
type runInfo struct {
	Digest   string   `json:"sim_digest"`
	Failures []string `json:"failures,omitempty"`
}

// failures collects failed operations; the first few reasons are kept
// for the run's info line.
type failures struct {
	n       int
	reasons []string
}

func (f *failures) add(op int, err error) {
	f.n++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, fmt.Sprintf("op %d: %v", op, err))
	}
}

// prepare builds the workload's inputs and runs the warm-up operations:
// everything between process start and the first timed operation.
func prepare(ctx context.Context, cfg runConfig, def workloadDef, dir string, fails *failures) (*inputs, error) {
	in, err := setUp(def, cfg.seed, cfg.tiny, dir)
	if err != nil {
		return nil, err
	}
	if cfg.afterSetUp != nil {
		if err := cfg.afterSetUp(in); err != nil {
			return nil, err
		}
	}
	for i := -warmUps; i < 0; i++ {
		if _, err := in.op(ctx, i, nil); err != nil {
			// A warm-up that fails is a broken workload, but the timed
			// window still reports it operation by operation.
			fails.reasons = append(fails.reasons, fmt.Sprintf("warm-up %d: %v", i, err))
			break
		}
	}
	return in, nil
}

// runWorkload executes one run and returns its result line.
func runWorkload(cfg runConfig) (result, runInfo, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, runInfo{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.setups <= 0 {
		cfg.setups = defaultSetups
	}
	if cfg.minOps <= 0 {
		cfg.minOps = defaultMinOps
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return result{}, runInfo{}, err
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		return result{}, runInfo{}, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return runTraced(cfg, def, dir)
	}
	return runEndToEnd(cfg, def, dir)
}

// runEndToEnd is the untraced pass: set-up (several times, for a steady
// setup_s), then one closed loop of timed operations for cfg.seconds.
func runEndToEnd(cfg runConfig, def workloadDef, dir string) (result, runInfo, error) {
	ctx := context.Background()
	var (
		fails  failures
		in     *inputs
		setupS []float64
	)
	for r := 0; r < cfg.setups; r++ {
		if in != nil {
			// Drop the previous repetition's inputs first, so the peak RSS
			// is one set-up's, not however many the collector let pile up.
			in.release()
			in = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if in, err = prepare(ctx, cfg, def, dir, &fails); err != nil {
			return result{}, runInfo{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer in.release()
	runtime.GC()

	var (
		wall, cpu []float64
		first     *outcome
		digest    uint64
	)
	allocBefore := allocBytes()
	windowStart := time.Now()
	for i := 0; i < cfg.minOps || time.Since(windowStart).Seconds() < cfg.seconds; i++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		out, err := in.op(ctx, i, nil)
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, cpuSeconds()-cpu0)
		if err == nil {
			err = in.check(out)
		}
		if err != nil {
			fails.add(i, err)
			continue
		}
		if first == nil {
			first, digest = out, out.digest()
		}
	}
	window := time.Since(windowStart).Seconds()
	allocMB := float64(allocBytes()-allocBefore) / (1 << 20)
	rss := peakRSSMB()
	ops := len(wall)

	if def.kind == opStream && first != nil {
		// Streamed replay is pinned bit-identical to in-memory replay.
		ref := *in
		ref.def.kind = opProfile
		want, err := ref.op(ctx, 0, nil)
		if err != nil {
			return result{}, runInfo{}, fmt.Errorf("in-memory reference: %w", err)
		}
		if want.digest() != digest {
			fails.add(0, fmt.Errorf("streamed digest %#x differs from in-memory %#x", digest, want.digest()))
		}
	}

	res := result{Correct: fails.n == 0, Attempted: ops, Failed: fails.n, Metrics: map[string]metricValue{}}
	info := runInfo{Digest: fmt.Sprintf("%#016x", digest), Failures: fails.reasons}
	cost := 0.0
	if first != nil {
		cost = first.costVsDRAMPct()
	}
	values := map[string]float64{
		"setup_s":           stats.Median(setupS),
		"advice_wall_s":     stats.Median(wall),
		"advice_wall_p75_s": stats.Percentile(wall, 75),
		"advice_cpu_s":      stats.Median(cpu),
		"trace_req_per_s":   float64(ops-fails.n) * float64(in.w.RequestCount()*len(def.engines)) / window,
		"peak_rss_mb":       rss,
		"alloc_mb_per_op":   allocMB / float64(ops),
		"cost_vs_dram_pct":  cost,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res, info, nil
}

// runTraced is the traced pass. For about half of cfg.seconds it
// alternates each operation three ways — plain, staged under spans, and
// plain with an observability sink — so the three medians share one
// noise regime; then it runs the layer drives. Per-layer metrics come
// from the spans.
func runTraced(cfg runConfig, def workloadDef, dir string) (result, runInfo, error) {
	ctx := context.Background()
	var fails failures
	in, err := prepare(ctx, cfg, def, dir, &fails)
	if err != nil {
		return result{}, runInfo{}, err
	}
	defer in.release()
	runtime.GC()

	rec := newRecorder()
	var (
		plainS, stagedS, sinkS []float64
		first                  *outcome
		digest                 uint64
	)
	minOps := (cfg.minOps + 1) / 2
	windowStart := time.Now()
	for i := 0; i < minOps || time.Since(windowStart).Seconds() < cfg.seconds/2; i++ {
		t0 := time.Now()
		plain, err := in.op(ctx, i, nil)
		plainS = append(plainS, time.Since(t0).Seconds())
		if err == nil {
			err = in.check(plain)
		}
		if err != nil {
			fails.add(i, err)
			continue
		}
		t0 = time.Now()
		staged, err := in.stagedOp(ctx, i, rec, plain)
		stagedS = append(stagedS, time.Since(t0).Seconds())
		if err == nil {
			err = in.check(staged)
		}
		if err == nil && staged.digest() != plain.digest() {
			err = fmt.Errorf("traced digest %#x differs from untraced %#x", staged.digest(), plain.digest())
		}
		if err != nil {
			fails.add(i, err)
			continue
		}
		t0 = time.Now()
		if _, err := in.op(ctx, i, mnemo.NewSink()); err != nil {
			fails.add(i, err)
			continue
		}
		sinkS = append(sinkS, time.Since(t0).Seconds())
		if first == nil {
			first, digest = plain, plain.digest()
		}
	}
	ops := len(plainS)
	res := result{Attempted: ops, Failed: fails.n, Metrics: map[string]metricValue{}}
	info := runInfo{Digest: fmt.Sprintf("%#016x", digest), Failures: fails.reasons}
	if first == nil {
		// No operation survived: there is nothing to drive the layers on.
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Unit: m.Unit}
		}
		return res, info, nil
	}

	var rep0 *mnemo.Report
	if len(first.reports) > 0 {
		rep0 = first.reports[0]
	} else {
		// A tune outcome carries no report; profile the winner's policy
		// family at its defaults for the report-shaped drives.
		opts := in.options(0, def.engines[0])
		opts.Policy = first.winner.Candidate.Policy
		if rep0, err = mnemo.ProfileContext(ctx, in.w, opts); err != nil {
			return result{}, runInfo{}, err
		}
	}
	values, err := runLayerDrives(ctx, in, rec, dir, rep0)
	if err != nil {
		return result{}, runInfo{}, fmt.Errorf("layer drives: %w", err)
	}

	// Stage metrics: per operation, summed over the op's sessions (three
	// engines, or 32 tune candidates), then the median across operations.
	stages := rec.opStages()
	for _, name := range []string{"measure", "analyze", "estimate", "advise", "place", "adaptive", "session_self"} {
		perOp := make([]float64, len(stages))
		for i, st := range stages {
			perOp[i] = st[name]
		}
		values["core."+name+"_s"] = stats.Median(perOp)
	}
	plainMed := stats.Median(plainS)
	values["bench.span_overhead_pct"] = (stats.Median(stagedS)/plainMed - 1) * 100
	values["obs.sink_overhead_pct"] = (stats.Median(sinkS)/plainMed - 1) * 100
	host := readHost()
	values["host.calib_ns"] = host.CalibNs
	values["host.nproc"] = float64(host.NProc)

	spansOut := cfg.spansOut
	if spansOut == "" {
		spansOut = filepath.Join(cfg.tmpDir, fmt.Sprintf("spans-%s-%d.json", def.Name, cfg.seed))
	}
	if err := rec.write(spansOut); err != nil {
		return result{}, runInfo{}, err
	}

	for _, m := range perLayer {
		v, ok := values[m.Name]
		if !ok {
			return result{}, runInfo{}, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Correct = fails.n == 0
	return res, info, nil
}
