package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"mnemo"
	"mnemo/internal/core"
	"mnemo/internal/registry"
)

// inputs is one workload's set-up product: everything the timed
// operations and the layer drives read.
type inputs struct {
	def  workloadDef
	seed int64
	// w is the in-memory trace. Operations profile it (or, on
	// stream_mtrc, the file spilled from it); the layer drives run on it.
	w *mnemo.Workload
	// tracePath is the spilled .mtrc file (stream_mtrc only).
	tracePath string
	// capture is the raw MONITOR text w was parsed from (capture_perop
	// only).
	capture []byte
	keys    int
	reqs    int
	// epochs is the adaptive epoch count of the first checked operation;
	// every later one must match it.
	epochs int
}

// setUp builds the workload's inputs from the seed: generate or parse
// the trace, and spill it for the streamed workload. dir receives the
// .mtrc file.
func setUp(def workloadDef, seed int64, tiny bool, dir string) (*inputs, error) {
	in := &inputs{def: def, seed: seed, keys: def.keys, reqs: def.reqs}
	if tiny {
		in.keys, in.reqs = tinyKeys, tinyRequests
	}
	var err error
	if def.preset == "" {
		in.capture = genCapture(seed, in.keys, in.reqs)
		in.w, err = mnemo.LoadRedisMonitor(bytes.NewReader(in.capture), 1024)
	} else {
		in.w, err = mnemo.WorkloadByNameSized(def.preset, seed, in.keys, in.reqs)
	}
	if err != nil {
		return nil, fmt.Errorf("set-up %s: %w", def.Name, err)
	}
	if def.kind == opStream {
		in.tracePath = filepath.Join(dir, fmt.Sprintf("%s-%d.mtrc", def.Name, seed))
		if err := mnemo.WriteTrace(in.w, in.tracePath); err != nil {
			return nil, fmt.Errorf("set-up %s: %w", def.Name, err)
		}
	}
	return in, nil
}

// release drops what set-up left on disk.
func (in *inputs) release() {
	if in.tracePath != "" {
		os.Remove(in.tracePath)
	}
}

// options are operation i's profiling options: the same trace under
// measurement-noise seed seed+i, so a process-wide memo cache cannot
// turn later operations into no-ops.
func (in *inputs) options(i int, engine mnemo.Engine) mnemo.Options {
	o := in.def.opts
	o.Store = engine
	o.Seed = in.seed + int64(i)
	return o
}

func (in *inputs) tuneOptions() mnemo.TuneOptions {
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	return mnemo.TuneOptions{Budget: tuneBudget, SearchSeed: tuneSearchSeed, Workers: workers}
}

// outcome is what one operation produced — the material for the
// correctness checks and the digest.
type outcome struct {
	reports    []*mnemo.Report // one per engine (empty for opTune)
	adaptive   *mnemo.AdaptiveComparison
	evals      []mnemo.TuneEval // opTune: every evaluation, search order
	winner     mnemo.TuneEval
	cacheStats core.CacheStats
}

// openRun returns the workload the operation profiles: the in-memory
// trace, or a fresh streamed view of the spilled file after validating
// it (the way cmd/mnemo -trace consumes an untrusted file).
func (in *inputs) openRun() (*mnemo.Workload, error) {
	if in.def.kind != opStream {
		return in.w, nil
	}
	sum, err := mnemo.ValidateTrace(in.tracePath)
	if err != nil {
		return nil, err
	}
	if sum.Requests != int64(in.reqs) {
		return nil, fmt.Errorf("trace holds %d requests, want %d", sum.Requests, in.reqs)
	}
	return mnemo.OpenTrace(in.tracePath)
}

// op runs operation i the way a user would: through the public one-shot
// API, with no spans.
func (in *inputs) op(ctx context.Context, i int, sink *mnemo.Sink) (*outcome, error) {
	out := &outcome{}
	if in.def.kind == opTune {
		opts := in.options(i, in.def.engines[0])
		opts.Obs = sink
		res, err := mnemo.Tune(ctx, in.w, opts, in.tuneOptions())
		if err != nil {
			return nil, err
		}
		out.evals, out.winner, out.cacheStats = res.Evals, res.Winner, res.Stats
		return out, nil
	}
	w, err := in.openRun()
	if err != nil {
		return nil, err
	}
	for _, engine := range in.def.engines {
		opts := in.options(i, engine)
		opts.Obs = sink
		rep, err := mnemo.ProfileContext(ctx, w, opts)
		if err != nil {
			return nil, err
		}
		if err := render(rep); err != nil {
			return nil, err
		}
		out.reports = append(out.reports, rep)
		if in.def.kind == opAdaptive {
			if out.adaptive, err = mnemo.MeasureAdaptive(ctx, w, rep, opts); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// render produces the two artifacts every consulting run ends with: the
// report summary and the curve CSV.
func render(rep *mnemo.Report) error {
	_ = rep.Summary(16)
	return rep.Curve.WriteCSV(io.Discard)
}

// stagedOp is operation i driven stage by stage through the Session API
// with one span per stage under an op span. plain is the untraced
// outcome of the same i: the tune variant re-evaluates its candidates.
func (in *inputs) stagedOp(ctx context.Context, i int, rec *recorder, plain *outcome) (*outcome, error) {
	opSpan := rec.start("op", -1, i)
	defer rec.end(opSpan)
	if in.def.kind == opTune {
		return in.stagedTune(ctx, i, rec, opSpan, plain)
	}
	out := &outcome{}
	w, err := in.openRun()
	if err != nil {
		return nil, err
	}
	for _, engine := range in.def.engines {
		opts := in.options(i, engine)
		s, err := mnemo.NewSession(w, opts)
		if err != nil {
			return nil, err
		}
		pol, err := mnemo.PolicyByName(opts.Policy, opts.Seed)
		if err != nil {
			return nil, err
		}
		_, adv, err := stagedSession(ctx, s, pol, rec, opSpan, i)
		if err != nil {
			return nil, err
		}
		if err := rec.in("place", opSpan, i, func() error {
			_, err := s.Place(ctx, pol, adv.Point)
			return err
		}); err != nil {
			return nil, err
		}
		// Every artifact is cached by now: Run only assembles the report.
		rep, err := s.Run(ctx, pol, slo)
		if err != nil {
			return nil, err
		}
		if err := render(rep); err != nil {
			return nil, err
		}
		out.reports = append(out.reports, rep)
		if in.def.kind == opAdaptive {
			if err := rec.in("adaptive", opSpan, i, func() error {
				out.adaptive, err = mnemo.MeasureAdaptive(ctx, w, rep, opts)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// stagedSession drives Measure → Analyze → Estimate → Advise, one span
// each, and returns the curve and the advice.
func stagedSession(ctx context.Context, s *mnemo.Session, pol mnemo.TieringPolicy, rec *recorder, parent, op int) (*mnemo.Curve, core.Advice, error) {
	var (
		curve *mnemo.Curve
		adv   core.Advice
	)
	stages := []struct {
		name string
		fn   func() error
	}{
		{"measure", func() error { _, err := s.Measure(ctx); return err }},
		{"analyze", func() error { _, err := s.Analyze(ctx, pol); return err }},
		{"estimate", func() (err error) { curve, err = s.Estimate(ctx, pol); return err }},
		{"advise", func() (err error) { adv, err = s.Advise(ctx, pol, slo); return err }},
	}
	for _, st := range stages {
		if err := rec.in(st.name, parent, op, st.fn); err != nil {
			return nil, adv, err
		}
	}
	return curve, adv, nil
}

// betterEval is the tuner's ranking: cheaper, then less slowdown, then
// the smaller name.
func betterEval(a, b mnemo.TuneEval) bool {
	if a.CostFactor != b.CostFactor {
		return a.CostFactor < b.CostFactor
	}
	if a.Slowdown != b.Slowdown {
		return a.Slowdown < b.Slowdown
	}
	return a.PolicyName < b.PolicyName
}

// stagedTune re-evaluates the plain search's candidates one by one
// through cache-backed sessions, the way the tuner does internally, so
// the sweep's time splits into measure/analyze/estimate/advise.
func (in *inputs) stagedTune(ctx context.Context, i int, rec *recorder, opSpan int, plain *outcome) (*outcome, error) {
	opts := in.options(i, in.def.engines[0])
	probe, err := mnemo.NewSession(in.w, opts)
	if err != nil {
		return nil, err
	}
	cfg := probe.Config()
	cache := core.NewArtifactCache()
	out := &outcome{}
	for n, plainEval := range plain.evals {
		cand := plainEval.Candidate
		pol, err := registry.NewParams(cand.Policy, cfg.Server.Seed, cand.Params)
		if err != nil {
			return nil, err
		}
		s, err := core.NewSharedSession(cfg, in.w, cache)
		if err != nil {
			return nil, err
		}
		curve, adv, err := stagedSession(ctx, s, pol, rec, opSpan, i)
		if err != nil {
			return nil, err
		}
		// Only what the digest and the checks read is filled in.
		e := mnemo.TuneEval{Candidate: cand, PolicyName: pol.Name(),
			CostFactor: adv.Point.CostFactor, FastBytes: adv.Point.FastBytes,
			KeysInFast: adv.Point.KeysInFast, Satisfiable: adv.Satisfiable}
		if fast := float64(curve.FastOnly().EstRuntime); fast > 0 {
			e.Slowdown = float64(adv.Point.EstRuntime)/fast - 1
		}
		out.evals = append(out.evals, e)
		if n == 0 || betterEval(e, out.winner) {
			out.winner = e
		}
	}
	out.cacheStats = cache.Stats()
	return out, nil
}

// check applies the model-level invariants to one operation's outcome.
// A violated invariant makes the operation count as failed.
func (in *inputs) check(out *outcome) error {
	for _, rep := range out.reports {
		if err := checkReport(rep, in.def.opts.Shards > 1); err != nil {
			return fmt.Errorf("%s: %w", rep.Engine, err)
		}
	}
	if in.def.kind == opAdaptive {
		ad := out.adaptive
		if ad == nil {
			return fmt.Errorf("no adaptive measurement")
		}
		// The epoch count is a property of the trace, not of the noise.
		if in.epochs == 0 {
			in.epochs = ad.Adaptive.Epochs
		}
		if ad.Adaptive.Epochs == 0 || ad.Adaptive.Epochs != in.epochs {
			return fmt.Errorf("adaptive run served %d epochs, earlier operations %d", ad.Adaptive.Epochs, in.epochs)
		}
		// A placement with room on both tiers must migrate on a drifting
		// hot set; how many records move depends on the noise seed.
		if k := out.reports[0].Advice.Point.KeysInFast; k > 0 && k < in.keys && ad.Adaptive.MovesApplied == 0 {
			return fmt.Errorf("adaptive run migrated nothing with %d of %d keys in FastMem", k, in.keys)
		}
	}
	if in.def.kind == opTune {
		if len(out.evals) != tuneBudget {
			return fmt.Errorf("tune evaluated %d candidates, want %d", len(out.evals), tuneBudget)
		}
		if out.cacheStats.Measurements != 1 {
			return fmt.Errorf("tune measured baselines %d times, want 1", out.cacheStats.Measurements)
		}
		for _, e := range out.evals {
			if e.CostFactor < out.winner.CostFactor {
				return fmt.Errorf("candidate %s (cost %v) beats the winner (cost %v)",
					e.PolicyName, e.CostFactor, out.winner.CostFactor)
			}
			if c := e.Curve(); c != nil {
				if err := checkCurve(c, false); err != nil {
					return fmt.Errorf("%s: %w", e.PolicyName, err)
				}
			}
		}
	}
	return nil
}

// Tolerances of the curve invariants. The all-FastMem end of the curve
// is the measured runtime itself; the all-SlowMem end is rebuilt from
// per-kind average latencies and reproduces the measured runtime only up
// to rounding. A barely SlowMem-sensitive engine can measure one request
// kind a hair faster on SlowMem under noise, so the estimated runtime may
// rise along the curve by that noise — never by more than monotoneSlack
// of the all-FastMem runtime in total.
const (
	endpointTolerance = 0.01
	monotoneSlack     = 0.001
)

func checkReport(rep *mnemo.Report, sharded bool) error {
	c := rep.Curve
	if err := checkCurve(c, sharded); err != nil {
		return err
	}
	if rep.Advice == nil {
		return fmt.Errorf("no advice")
	}
	budget := float64(c.FastOnly().EstRuntime) * (1 + slo)
	if float64(rep.Advice.Point.EstRuntime) > budget {
		return fmt.Errorf("advised point runs %v, over the SLO budget %v",
			rep.Advice.Point.EstRuntime, budget)
	}
	return nil
}

// checkCurve applies the curve invariants. On a sharded cluster only the
// all-FastMem endpoint is compared: the estimate engine sums the SlowMem
// penalty over every request while the cluster clock is the slowest
// shard's, so its all-SlowMem end overshoots the measured baseline by
// design of the present model (README.md, "Findings").
func checkCurve(c *mnemo.Curve, sharded bool) error {
	if len(c.Points) < 2 {
		return fmt.Errorf("curve has %d points", len(c.Points))
	}
	var rise float64
	for k := 1; k < len(c.Points); k++ {
		prev, cur := c.Points[k-1], c.Points[k]
		if cur.FastBytes < prev.FastBytes || cur.CostFactor < prev.CostFactor {
			return fmt.Errorf("curve cost not monotone in FastMem at point %d", k)
		}
		if d := float64(cur.EstRuntime - prev.EstRuntime); d > 0 {
			rise += d
		}
	}
	fast := float64(c.Baselines.Fast.Runtime)
	if rise > monotoneSlack*fast {
		return fmt.Errorf("curve runtime rises by %.0f ns along FastMem, over %.1f%% of the all-FastMem runtime",
			rise, monotoneSlack*100)
	}
	ends := []struct {
		name      string
		est, meas float64
	}{
		{"all-FastMem", float64(c.FastOnly().EstRuntime), fast},
		{"all-SlowMem", float64(c.SlowOnly().EstRuntime), float64(c.Baselines.Slow.Runtime)},
	}
	if sharded {
		ends = ends[:1]
	}
	for _, e := range ends {
		if e.meas <= 0 || math.Abs(e.est-e.meas)/e.meas > endpointTolerance {
			return fmt.Errorf("%s endpoint %v differs from the measured baseline %v", e.name, e.est, e.meas)
		}
	}
	return nil
}

// digest is FNV-64a over everything simulated in the outcome: baselines,
// every curve point, the advice, the adaptive ledger and the tune
// evaluations. Two runs of the same code and seed print the same digest;
// a host-time optimisation must leave it unchanged.
func (out *outcome) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	point := func(p mnemo.CurvePoint) {
		u64(uint64(p.KeysInFast))
		u64(uint64(p.FastBytes))
		f64(p.CostFactor)
		u64(uint64(p.EstRuntime))
	}
	for _, rep := range out.reports {
		for _, b := range []mnemo.RunStats{rep.Baselines.Fast, rep.Baselines.Slow} {
			u64(uint64(b.Runtime))
			f64(b.AvgReadNs)
			f64(b.AvgWriteNs)
			f64(b.P99Ns)
			f64(b.LLCHitRate)
		}
		for _, p := range rep.Curve.Points {
			point(p)
		}
		point(rep.Advice.Point)
	}
	if ad := out.adaptive; ad != nil {
		for _, st := range []mnemo.RunStats{ad.Static, ad.Adaptive} {
			u64(uint64(st.Runtime))
			u64(uint64(st.Epochs))
			u64(uint64(st.MovesApplied))
			u64(uint64(st.MigratedBytes))
		}
	}
	for _, e := range out.evals {
		h.Write([]byte(e.PolicyName))
		f64(e.CostFactor)
		u64(uint64(e.FastBytes))
		u64(uint64(e.KeysInFast))
	}
	if len(out.evals) > 0 {
		h.Write([]byte(out.winner.PolicyName))
		f64(out.winner.CostFactor)
	}
	return h.Sum64()
}

// costVsDRAMPct is the advised memory cost relative to FastMem-only, in
// percent: the mean over engines, or the tune winner's.
func (out *outcome) costVsDRAMPct() float64 {
	if len(out.evals) > 0 {
		return out.winner.CostFactor * 100
	}
	var sum float64
	for _, rep := range out.reports {
		sum += rep.Advice.Point.CostFactor
	}
	return sum / float64(len(out.reports)) * 100
}
