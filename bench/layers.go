package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"mnemo"
	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/knapsack"
	"mnemo/internal/kvstore"
	"mnemo/internal/kvstore/hashkv"
	"mnemo/internal/kvstore/slabkv"
	"mnemo/internal/kvstore/treekv"
	"mnemo/internal/memsim"
	"mnemo/internal/pool"
	"mnemo/internal/registry"
	"mnemo/internal/report"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/stats"
	"mnemo/internal/trace"
	"mnemo/internal/tune"
	"mnemo/internal/ycsb"
)

// Work caps of the layer drives: a drive that walks the trace per
// request stops here, so the traced pass of the biggest workload still
// fits its time budget. Costs are reported per unit, so a cap changes
// precision, not meaning.
const (
	maxPerOpDriveReqs = 1 << 20
	maxMonitorLines   = 100000
	maxKnapsackItems  = 1000
	maxMoves          = 2000
	maxTuneKeys       = 2000
)

// driver runs the layer drives: each calls one layer's exported
// functions directly, on the workload's own inputs, as a root span.
type driver struct {
	ctx context.Context
	in  *inputs
	rec *recorder
	dir string
	m   map[string]float64 // metric name → value

	rw   *ycsb.Workload // in.w without deletes: what the batch kernel can serve
	rep0 *mnemo.Report  // operation 0's report, first engine
}

// time runs fn as the root span named after the metric and records the
// metric as its cost in nanoseconds per unit of work.
func (d *driver) time(metric string, units float64, fn func()) {
	d.m[metric] = d.rec.drive(metric, units, fn)
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// freshCopy is the same trace behind a new descriptor, so lazily cached
// encodings (Packed, shard.For) are cold again.
func freshCopy(w *ycsb.Workload) *ycsb.Workload {
	return &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Ops: w.Ops}
}

// readWriteOnly drops the deletes from a trace.
func readWriteOnly(w *ycsb.Workload) *ycsb.Workload {
	if w.Packed().Batchable() {
		return w
	}
	out := freshCopy(w)
	out.Ops = make([]ycsb.Op, 0, len(w.Ops))
	for _, op := range w.Ops {
		if op.Kind != kvstore.Delete {
			out.Ops = append(out.Ops, op)
		}
	}
	out.Spec.Requests = len(out.Ops)
	return out
}

// prefix is the trace's first n requests over the same dataset.
func prefix(w *ycsb.Workload, n int) *ycsb.Workload {
	if len(w.Ops) <= n {
		return w
	}
	out := freshCopy(w)
	out.Ops = w.Ops[:n]
	out.Spec.Requests = n
	return out
}

// runLayerDrives measures every layer on the workload's inputs. rep0 is
// operation 0's report (first engine), the source of the simulated
// per-layer numbers.
func runLayerDrives(ctx context.Context, in *inputs, rec *recorder, dir string, rep0 *mnemo.Report) (map[string]float64, error) {
	d := &driver{ctx: ctx, in: in, rec: rec, dir: dir, m: map[string]float64{}, rw: readWriteOnly(in.w), rep0: rep0}
	steps := []func() error{
		d.ycsbLayer, d.traceLayer, d.shardLayer, d.serverLayer, d.kvstoreLayer, d.memsimLayer,
		d.clientLayer, d.registryLayer, d.tuneLayer, d.poolLayer, d.coreLayer, d.reportLayer,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return d.m, nil
}

func (d *driver) ycsbLayer() error {
	in := d.in
	spec, ok := ycsb.AnySpecByName(in.def.preset, in.seed)
	if !ok {
		// The capture has no generator spec; time its YCSB analogue.
		spec = ycsb.Spec{Name: "capture_like", Dist: ycsb.DistSpec{Kind: ycsb.Hotspot,
			HotSetFraction: 0.2, HotOpnFraction: 0.9}, ReadRatio: 0.8, Sizes: ycsb.SizeFixed1KB, Seed: in.seed}
	}
	spec.Keys, spec.Requests = in.keys, in.reqs
	var err error
	d.time("ycsb.generate_ns_per_req", float64(in.reqs), func() { _, err = ycsb.Generate(spec) })
	if err != nil {
		return err
	}

	fresh := freshCopy(in.w)
	d.time("ycsb.pack_ns_per_req", float64(len(fresh.Ops)), func() { fresh.Packed() })

	capture := in.capture
	if capture == nil {
		capture = genCapture(in.seed, min(in.keys, 2000), min(in.reqs, maxMonitorLines))
	}
	lines := bytes.Count(capture, []byte{'\n'})
	d.time("ycsb.parse_monitor_ns_per_line", float64(lines), func() {
		_, err = ycsb.ParseRedisMonitor(bytes.NewReader(capture), 1024)
	})
	return err
}

// layerTrace is where the trace drives spill the workload.
func (d *driver) layerTrace() string { return filepath.Join(d.dir, "layers.mtrc") }

func (d *driver) traceLayer() error {
	in, path := d.in, d.layerTrace()
	reqs := float64(in.w.RequestCount())
	var err error
	d.time("trace.write_ns_per_req", reqs, func() { err = trace.WriteWorkload(in.w, path) })
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	d.m["trace.file_bytes_per_req"] = float64(st.Size()) / reqs

	d.time("trace.validate_ns_per_req", reqs, func() { _, err = trace.ValidateFile(path) })
	if err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tf, err := trace.New(f, st.Size())
	if err != nil {
		return err
	}
	frames := 0
	before := allocBytes()
	d.time("trace.decode_ns_per_req", reqs, func() {
		var it *trace.FrameReader
		if it, err = tf.Frames(); err != nil {
			return
		}
		for {
			if _, _, _, err = it.Next(); err != nil {
				break
			}
			frames++
		}
	})
	if !errors.Is(err, io.EOF) {
		return fmt.Errorf("trace decode: %w", err)
	}
	d.m["trace.decode_alloc_kb"] = float64(allocBytes()-before) / 1024
	d.m["trace.frames"] = float64(frames)
	d.rec.Counts["trace.frames"] = float64(frames)
	return nil
}

func (d *driver) shardLayer() error {
	const shards = 4
	reqs := float64(d.in.w.RequestCount())
	var (
		p   *shard.Partition
		err error
	)
	fresh := freshCopy(d.in.w)
	d.time("shard.split_ns_per_req", reqs, func() { p, err = shard.Split(fresh, shards, 0, false) })
	if err != nil {
		return err
	}
	largest := 0
	for _, sub := range p.Subs {
		largest = max(largest, sub.Requests)
	}
	d.m["shard.imbalance_pct"] = (float64(largest)/(reqs/shards) - 1) * 100

	if _, err := shard.For(d.in.w, shards, 0, false); err != nil {
		return err
	}
	const lookups = 1000
	d.time("shard.for_cached_ns", lookups, func() {
		for i := 0; i < lookups; i++ {
			_, err = shard.For(d.in.w, shards, 0, false)
		}
	})
	return err
}

// loaded builds a deployment holding the workload's dataset.
func (d *driver) loaded(cfg server.Config, p server.Placement) (*server.Deployment, error) {
	dep := server.NewDeployment(cfg)
	if err := dep.Load(d.in.w.Dataset, p); err != nil {
		return nil, err
	}
	return dep, nil
}

func (d *driver) serverLayer() error {
	in := d.in
	keys := float64(len(in.w.Dataset.Records))
	perOp := in.w.Ops[:min(len(in.w.Ops), maxPerOpDriveReqs)]
	for _, e := range server.Engines() {
		cfg := server.DefaultConfig(e, in.seed)
		var (
			dep *server.Deployment
			err error
		)
		d.time("server.load_ns_per_key."+e.String(), keys, func() { dep, err = d.loaded(cfg, server.AllFast()) })
		if err != nil {
			return err
		}

		var table *server.ReplayTable
		d.time("server.table_build_ns_per_key."+e.String(), keys, func() { table = dep.BatchTable() })
		if table == nil {
			return fmt.Errorf("%v: no batch table after Load", e)
		}

		if e == server.RedisLike {
			d.serveDrive(dep, table)
		}

		// The per-op path mutates engine state, so it gets its own
		// deployment.
		perOpDep, err := d.loaded(cfg, server.AllFast())
		if err != nil {
			return err
		}
		d.time("server.doindex_ns_per_op."+e.String(), float64(len(perOp)), func() {
			for _, op := range perOp {
				perOpDep.DoIndex(op.Key, op.Kind)
			}
		})
	}
	return d.applyMovesDrive()
}

// serveDrive times the snapshot rewind and the bare batch kernel: every
// block of the trace through ReplayTable.Serve with nothing folding the
// latencies.
func (d *driver) serveDrive(dep *server.Deployment, table *server.ReplayTable) {
	const resets = 16
	d.time("server.reset_run_ns", resets, func() {
		for i := 0; i < resets; i++ {
			dep.ResetRun(d.in.seed + int64(i))
		}
	})

	pt := d.rw.Packed()
	lat := table.Block()
	d.time("server.serve_ns_per_req", float64(len(pt.Keys)), func() {
		for blk := 0; blk < len(pt.Keys); blk += server.ReplayBlockOps {
			end := min(blk+server.ReplayBlockOps, len(pt.Keys))
			table.Serve(pt.Keys[blk:end], pt.Kinds[blk:end], 0, lat)
		}
	})
}

// applyMovesDrive swaps records between the tiers of a half-fast
// deployment with a built batch table, so the table re-price is timed
// with the store moves.
func (d *driver) applyMovesDrive() error {
	keys := len(d.in.w.Dataset.Records)
	half := keys / 2
	fast := make([]int, half)
	for i := range fast {
		fast[i] = i
	}
	cfg := server.DefaultConfig(server.RedisLike, d.in.seed)
	cfg.MigrationCostPerByte = 0.1
	dep, err := d.loaded(cfg, server.FastIndices(fast, keys))
	if err != nil {
		return err
	}
	dep.BatchTable()
	var moves []server.Move
	for i := 0; i < min(half, maxMoves/2); i++ {
		moves = append(moves,
			server.Move{Index: i, To: memsim.Slow},
			server.Move{Index: half + i, To: memsim.Fast})
	}
	var res server.MigrationResult
	d.time("server.apply_moves_ns_per_move", float64(len(moves)), func() { res = dep.ApplyMoves(moves) })
	if res.Moves != len(moves) {
		return fmt.Errorf("ApplyMoves applied %d of %d moves", res.Moves, len(moves))
	}
	return nil
}

func (d *driver) kvstoreLayer() error {
	recs := d.in.w.Dataset.Records
	gets := d.in.w.Ops[:min(len(d.in.w.Ops), maxPerOpDriveReqs)]
	stores := map[string]kvstore.Store{
		server.RedisLike.String():     hashkv.New(),
		server.MemcachedLike.String(): slabkv.New(0),
		server.DynamoLike.String():    treekv.New(),
	}
	for _, e := range engineNames {
		st := stores[e]
		d.time("kvstore.put_ns."+e, float64(len(recs)), func() {
			for _, r := range recs {
				st.PutID(r.Key, r.ID, kvstore.Sized(r.Size))
			}
		})
		d.time("kvstore.get_ns."+e, float64(len(gets)), func() {
			for _, op := range gets {
				r := &recs[op.Key]
				st.GetID(r.Key, r.ID)
			}
		})
		d.time("kvstore.delete_ns."+e, float64(len(recs)), func() {
			for _, r := range recs {
				st.DelID(r.Key, r.ID)
			}
		})
		if st.Len() != 0 {
			return fmt.Errorf("%s: %d keys left after deleting all", e, st.Len())
		}
	}
	return nil
}

func (d *driver) memsimLayer() error {
	recs := d.in.w.Dataset.Records
	llc := memsim.NewLRUCache(memsim.DefaultConfig().LLCBytes)
	ops := d.in.w.Ops
	d.time("memsim.llc_access_ns", float64(len(ops)), func() {
		for _, op := range ops {
			r := &recs[op.Key]
			llc.Access(memsim.RecordRef{ID: r.ID, Bytes: r.Size})
		}
	})
	return nil
}

// clientLayer replays the trace through each of the client's four loops
// on a pre-loaded deployment.
func (d *driver) clientLayer() error {
	in := d.in
	base := server.DefaultConfig(server.RedisLike, in.seed)
	perOp := base
	perOp.DisableBatchReplay = true
	adaptiveOpts := mnemo.Options{Store: mnemo.RedisLike, Seed: in.seed, Policy: "adaptive-freq",
		SLO: slo, EpochOps: epochOps, MigrationCostPerByte: 0.1}
	probe, err := mnemo.NewSession(d.rw, adaptiveOpts)
	if err != nil {
		return err
	}
	streamed, err := trace.Open(d.layerTrace())
	if err != nil {
		return err
	}
	runs := []struct {
		path string
		cfg  server.Config
		w    *ycsb.Workload
	}{
		{"batched", base, d.rw},
		{"streamed", base, streamed},
		{"perop", perOp, in.w},
		{"epochs", probe.Config().Server, prefix(d.rw, maxPerOpDriveReqs)},
	}
	for _, r := range runs {
		dep, err := d.loaded(r.cfg, server.AllFast())
		if err != nil {
			return err
		}
		before := allocBytes()
		d.time("client.run_ns_per_req."+r.path, float64(r.w.RequestCount()), func() {
			_, err = client.RunCtx(d.ctx, dep, r.w, 0)
		})
		if err != nil {
			return fmt.Errorf("client run %s: %w", r.path, err)
		}
		if r.path == "batched" {
			d.m["client.run_alloc_kb"] = float64(allocBytes()-before) / 1024
		}
	}
	d.m["client.accum_ns_per_req"] = d.m["client.run_ns_per_req.batched"] - d.m["server.serve_ns_per_req"]

	const meanRuns = 4
	var meanNs [3]float64 // indexed by worker count
	for workers := 1; workers <= 2; workers++ {
		meanNs[workers] = d.rec.drive(fmt.Sprintf("client.execute_mean.w%d", workers), 1, func() {
			_, err = client.ExecuteMeanWorkers(base, d.rw, server.AllFast(), meanRuns, workers)
		})
		if err != nil {
			return err
		}
	}
	d.m["client.execute_mean_speedup_w2"] = meanNs[1] / meanNs[2]
	return nil
}

func (d *driver) registryLayer() error {
	in := d.in
	keys := float64(len(in.w.Dataset.Records))
	for _, name := range orderPolicies {
		pol, err := registry.New(name, in.seed)
		if err != nil {
			return err
		}
		d.time("registry.order_ns_per_key."+name, keys, func() { _, err = pol.Order(d.ctx, in.w) })
		if err != nil {
			return err
		}
	}

	// The DP on the dataset's first records at half their total weight,
	// in 4 KB units like the knapsack policy's pages.
	recs := in.w.Dataset.Records
	recs = recs[:min(len(recs), maxKnapsackItems)]
	reads, writes := in.w.AccessCounts()
	items := make([]knapsack.Item, len(recs))
	var total int64
	for i, r := range recs {
		items[i] = knapsack.Item{Weight: max(1, int64(r.Size+4095)/4096), Profit: float64(reads[i] + writes[i])}
		total += items[i].Weight
	}
	d.time("knapsack.exact_ns_per_item", float64(len(items)), func() { knapsack.Exact(items, total/2) })
	const greedyReps = 100
	d.time("knapsack.greedy_ns_per_item", float64(len(items)*greedyReps), func() {
		for i := 0; i < greedyReps; i++ {
			knapsack.Greedy(items, total/2)
		}
	})
	return nil
}

// tuneLayer runs the 32-candidate search at the operation's worker
// count, then at one and two workers for the scaling ratio. The search
// costs seconds on a 10 000-key dataset (the knapsack DP and the page
// sampler scale with keys), so bigger workloads are searched at
// tune_sweep's scale: the same preset, regenerated smaller.
func (d *driver) tuneLayer() error {
	in := d.in
	w := in.w
	if len(w.Dataset.Records) > maxTuneKeys {
		small, _ := workloadByName("tune_sweep")
		var err error
		if w, err = mnemo.WorkloadByNameSized(in.def.preset, in.seed, small.keys, small.reqs); err != nil {
			return err
		}
	}
	probe, err := mnemo.NewSession(w, mnemo.Options{Store: mnemo.RedisLike, Seed: in.seed, SLO: slo})
	if err != nil {
		return err
	}
	// sweep runs one search as a root span and returns its duration.
	sweep := func(name string, workers int) (res *tune.Result, ns float64, err error) {
		cfg := tune.Config{Core: probe.Config(), SLO: slo, Budget: tuneBudget, Seed: tuneSearchSeed, Workers: workers}
		ns = d.rec.drive(name, 1, func() { res, err = tune.New().Run(d.ctx, cfg, w) })
		return res, ns, err
	}
	opWorkers := in.tuneOptions().Workers
	res, sweepNs, err := sweep("tune.sweep", opWorkers)
	if err != nil {
		return err
	}
	d.m["tune.sweep_s"] = sweepNs / 1e9
	d.m["tune.evals"] = float64(len(res.Evals))
	d.m["tune.ns_per_eval"] = sweepNs / float64(len(res.Evals))
	st := res.Stats
	d.m["core.measure_count"] = float64(st.Measurements)
	d.m["core.cache_hit_pct"] = float64(st.BaselineHits) / float64(st.BaselineHits+st.Measurements) * 100

	_, w1, err := sweep("tune.sweep.w1", 1)
	if err != nil {
		return err
	}
	w2 := sweepNs
	if opWorkers != 2 {
		if _, w2, err = sweep("tune.sweep.w2", 2); err != nil {
			return err
		}
	}
	d.m["tune.speedup_w2"] = w1 / w2
	return nil
}

func (d *driver) poolLayer() error {
	const tasks = 100000
	d.time("pool.dispatch_ns_per_task", tasks, func() { pool.Run(tasks, runtime.GOMAXPROCS(0), func(int) {}) })
	return nil
}

// coreLayer checks operation 0's curve against held-out measured points
// and reads the simulated per-request numbers off its baselines.
func (d *driver) coreLayer() error {
	rep0 := d.rep0
	s, err := mnemo.NewSession(d.in.w, d.in.options(0, d.in.def.engines[0]))
	if err != nil {
		return err
	}
	var points []core.ValidationPoint
	d.m["core.validate_s"] = d.rec.drive("core.validate", 1, func() {
		points, err = core.ValidateWorkers(d.ctx, s.Config(), d.in.w, rep0.Curve, rep0.Ordering, validateSamples, 0)
	}) / 1e9
	if err != nil {
		return err
	}
	d.m["bench.estimate_err_pct"] = stats.Median(core.AbsErrors(points))

	d.m["server.sim_ns_per_req.fast"] = rep0.Baselines.Fast.AvgNs
	d.m["server.sim_ns_per_req.slow"] = rep0.Baselines.Slow.AvgNs
	d.m["memsim.llc_hit_pct"] = rep0.Baselines.Fast.LLCHitRate * 100
	return nil
}

func (d *driver) reportLayer() error {
	rep := d.rep0
	const summaries = 100
	d.m["report.summary_ms"] = d.rec.drive("report.summary", summaries, func() {
		for i := 0; i < summaries; i++ {
			_ = rep.Summary(16)
		}
	}) / 1e6

	const renders = 10
	var err error
	d.m["report.html_render_ms"] = d.rec.drive("report.html_render", renders, func() {
		for i := 0; i < renders && err == nil; i++ {
			err = htmlReport(rep).Render(io.Discard)
		}
	}) / 1e6
	return err
}

// htmlReport assembles the document cmd/mnemo -html writes: baselines
// and advice tables plus the curve chart sampled at 200 points.
func htmlReport(rep *mnemo.Report) *report.HTMLReport {
	doc := &report.HTMLReport{Title: "Mnemo sizing report — " + rep.Workload + " on " + rep.Engine}
	bt := report.NewTable("", "placement", "throughput ops/s", "avg read µs", "avg write µs", "p99 µs")
	for _, b := range []struct {
		name string
		st   mnemo.RunStats
	}{{"all FastMem", rep.Baselines.Fast}, {"all SlowMem", rep.Baselines.Slow}} {
		bt.AddRow(b.name, fmt.Sprintf("%.0f", b.st.ThroughputOpsSec), fmt.Sprintf("%.1f", b.st.AvgReadNs/1000),
			fmt.Sprintf("%.1f", b.st.AvgWriteNs/1000), fmt.Sprintf("%.1f", b.st.P99Ns/1000))
	}
	doc.Sections = append(doc.Sections, report.HTMLSection{Heading: "Measured baselines", Table: bt})

	at := report.NewTable("", "quantity", "value")
	a := rep.Advice
	at.AddRow("keys in FastMem", a.Point.KeysInFast)
	at.AddRow("FastMem capacity", report.FormatBytes(a.Point.FastBytes))
	at.AddRow("memory cost factor", fmt.Sprintf("%.3f of DRAM-only", a.Point.CostFactor))
	doc.Sections = append(doc.Sections, report.HTMLSection{Heading: "Advised sizing", Table: at})

	var xs, ys []float64
	step := max(1, len(rep.Curve.Points)/200)
	for i := 0; i < len(rep.Curve.Points); i += step {
		p := rep.Curve.Points[i]
		xs, ys = append(xs, p.CostFactor), append(ys, p.EstThroughputOps)
	}
	doc.Sections = append(doc.Sections, report.HTMLSection{
		Heading: "Cost / performance estimate",
		Chart: &report.Chart{XLabel: "memory cost factor R(p)", YLabel: "estimated throughput (ops/s)",
			Series: []report.Series{{Label: rep.Curve.Ordering, X: xs, Y: ys}}},
	})
	return doc
}
