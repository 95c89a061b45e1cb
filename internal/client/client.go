// Package client is the YCSB-like load driver of the reproduction: it
// replays a workload trace against a hybrid deployment (routing every
// request to the server instance that owns the key, as the paper's
// modified YCSB core module does) and measures what the paper measures —
// total runtime, throughput, average read/write response times, and the
// tail latencies of Fig 8d/8e.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

// RunStats are the client-side measurements of one workload execution.
type RunStats struct {
	Workload string
	Engine   string

	Requests int
	Reads    int
	Writes   int

	Runtime          simclock.Duration
	ThroughputOpsSec float64

	// Average response times per request kind, in nanoseconds — the
	// FastReadTime/SlowReadTime/FastWriteTime/SlowWriteTime inputs of
	// Mnemo's estimate model when measured on a baseline placement.
	AvgReadNs  float64
	AvgWriteNs float64
	AvgNs      float64

	// Latency percentiles in nanoseconds (Fig 8c–8e).
	P50Ns, P95Ns, P99Ns, MaxNs float64

	// LLCHitRate is the record-cache hit fraction over the run.
	LLCHitRate float64

	// ReadBuckets and WriteBuckets break the averages down by
	// power-of-two record-size class, feeding the size-aware estimate
	// extension. Empty buckets are omitted.
	ReadBuckets, WriteBuckets []BucketStat

	// ReadLatency and WriteLatency carry the full per-size-class latency
	// histograms of the run, feeding the tail-latency estimation
	// extension (internal/core TailEstimator). Empty classes are
	// omitted.
	ReadLatency, WriteLatency []BucketHistogram

	// Epochs, MovesApplied, MigratedBytes and MigrationNs summarize an
	// adaptive run's online migration (DESIGN.md §15): epochs served,
	// records migrated between tiers, payload bytes copied, and the
	// simulated time charged for the copies. Aggregates sum them across
	// repetitions. All zero on the static path.
	Epochs        int
	MovesApplied  int
	MigratedBytes int64
	MigrationNs   float64
	// EpochTraffic breaks the migration down per epoch (epochs where the
	// policy was consulted; the final epoch is not, since no requests
	// remain to recoup a migration). Aggregates merge rows by epoch.
	EpochTraffic []EpochTraffic
}

// EpochTraffic is one epoch's migration activity.
type EpochTraffic struct {
	Epoch  int
	Moves  int
	Bytes  int64
	CostNs float64
}

// BucketHistogram pairs a record-size class with the latency histogram
// of its requests.
type BucketHistogram struct {
	Bucket int
	Hist   *stats.Histogram
}

// HistFor returns the histogram of a size class, or nil if unobserved.
func HistFor(bhs []BucketHistogram, bucket int) *stats.Histogram {
	for _, bh := range bhs {
		if bh.Bucket == bucket {
			return bh.Hist
		}
	}
	return nil
}

// latencyHistParams are shared by every per-class histogram so mixtures
// across runs and classes are well defined.
const (
	latencyHistMin    = 100  // ns
	latencyHistGrowth = 1.02 // ≤2% quantile error
)

// histAccum collects per-bucket latency histograms during a run. It is a
// slice indexed by size class, so the per-op path does no map hashing;
// slots materialize lazily on first observation. The slice spans every
// class the run can observe up front (replayAccum's views cover the
// dataset's classes), so it never grows away from the table it views.
type histAccum struct {
	hists []*stats.Histogram // indexed by bucket; nil = unobserved
}

func (a *histAccum) add(bucket int, ns float64) {
	h := a.hists[bucket]
	if h == nil {
		h = newLatencyHistogram()
		a.hists[bucket] = h
	}
	h.Record(ns)
}

func (a *histAccum) histograms() []BucketHistogram {
	var out []BucketHistogram
	for b, h := range a.hists {
		if h != nil {
			out = append(out, BucketHistogram{Bucket: b, Hist: h})
		}
	}
	return out
}

// bucketStats derives the per-class count/mean breakdown from the class
// histograms, which track exact counts and sums as they record — so the
// replay loop maintains one accumulator per class instead of two.
func (a *histAccum) bucketStats() []BucketStat {
	var out []BucketStat
	for b, h := range a.hists {
		if h != nil && h.N() > 0 {
			out = append(out, BucketStat{Bucket: b, Count: int(h.N()), MeanNs: h.Mean()})
		}
	}
	return out
}

// countAndSum folds the class histograms' exact totals into one request
// count and latency sum.
func (a *histAccum) countAndSum() (int, float64) {
	n, sum := 0, 0.0
	for _, h := range a.hists {
		if h != nil {
			n += int(h.N())
			sum += h.Sum()
		}
	}
	return n, sum
}

// mergeHistograms folds run B's per-class histograms into run A's.
func mergeHistograms(a, b []BucketHistogram) []BucketHistogram {
	byBucket := map[int]*stats.Histogram{}
	for _, bh := range a {
		byBucket[bh.Bucket] = bh.Hist
	}
	for _, bh := range b {
		if h, ok := byBucket[bh.Bucket]; ok {
			h.Merge(bh.Hist)
		} else {
			byBucket[bh.Bucket] = bh.Hist
		}
	}
	out := make([]BucketHistogram, 0, len(byBucket))
	for bkt, h := range byBucket {
		out = append(out, BucketHistogram{Bucket: bkt, Hist: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// String summarizes the run for logs.
func (s RunStats) String() string {
	return fmt.Sprintf("%s/%s: %d ops in %v (%.0f ops/s, avg %.1fµs, p99 %.1fµs)",
		s.Engine, s.Workload, s.Requests, s.Runtime, s.ThroughputOpsSec,
		s.AvgNs/1000, s.P99Ns/1000)
}

// replayAccum is the per-run accumulator state of the replay loop, kept
// separate from RunStats assembly so the steady-state per-op cost — and
// its allocation count, pinned at zero by the client tests — is exactly
// the observe and foldBlock paths below. One size-class histogram per
// request kind is the complete state: counts, sums, means and buckets all
// derive from the class histograms afterwards.
//
// The histograms live in one table, read classes then write classes, and
// readHists and writeHists are views of its two halves. Both replay paths
// therefore see the same slots: a class first observed per-op is the one
// a later kernel block folds into, and vice versa.
type replayAccum struct {
	hists                 []*stats.Histogram
	readHists, writeHists histAccum
	writeRoute            uint8 // table offset of the write half: the class count
}

// newReplayAccum sizes the accumulator for a dataset's size-class table:
// each half has a slot per class up to the largest one present.
func newReplayAccum(classes []uint8) *replayAccum {
	n := 0
	for _, c := range classes {
		n = max(n, int(c)+1)
	}
	a := &replayAccum{hists: make([]*stats.Histogram, 2*n), writeRoute: uint8(n)}
	a.readHists.hists = a.hists[:n:n]
	a.writeHists.hists = a.hists[n:]
	return a
}

// observe folds one served request into the accumulators, classified by
// its record's precomputed size class. Every request lands in exactly one
// size-class histogram; the run-level histogram is recovered afterwards by
// merging the classes, so the per-op path records each latency once
// instead of twice.
func (a *replayAccum) observe(kind kvstore.OpKind, bucket int, ns float64) {
	if kind == kvstore.Read {
		a.readHists.add(bucket, ns)
	} else {
		a.writeHists.add(bucket, ns)
	}
}

// foldBlock folds one block served by the batched kernel into the
// accumulators, in request order: request i addressed record keys[i]
// with op kind kinds[i] and took lat[i]. The caller cuts keys, kinds
// and lat to the served prefix. One pass routes each request to its
// (kind, size class) histogram, creating a class's histogram the first
// time it appears; stats.RecordBlock then records the whole block —
// the same Record sequence observe would make, one call per block.
func (a *replayAccum) foldBlock(keys []uint32, kinds []uint8, classes []uint8, lat []simclock.Duration) {
	var buf [replayBlockOps]uint8
	route := buf[:len(lat)]
	for i := range route {
		r := classes[keys[i]]
		if kinds[i] != uint8(kvstore.Read) {
			r += a.writeRoute
		}
		if a.hists[r] == nil {
			a.hists[r] = newLatencyHistogram()
		}
		route[i] = r
	}
	stats.RecordBlock(a.hists, route, lat)
}

// newLatencyHistogram builds a histogram of the geometry every latency
// histogram shares.
func newLatencyHistogram() *stats.Histogram {
	return stats.NewHistogram(latencyHistMin, latencyHistGrowth)
}

// sizeClasses computes each record's power-of-two size class once, so the
// replay loop reads a byte from an L1-resident table instead of chasing
// into the records array and re-deriving the bucket per request.
func sizeClasses(recs []ycsb.Record) []uint8 {
	classes := make([]uint8, len(recs))
	for i := range recs {
		classes[i] = uint8(SizeBucket(recs[i].Size))
	}
	return classes
}

// replayBlockOps is the frame size of an in-memory trace and the upper
// bound of a streamed one, equal to the batched kernel's
// server.ReplayBlockOps.
const replayBlockOps = server.ReplayBlockOps

// replayFrames is the replay loop — the only one: it drives the
// workload's frames (ycsb.Workload.Frames: 4096-op windows over an
// in-memory or packed-only trace, decoded frames of a .mtrc stream)
// through the deployment and folds every response into the accumulators.
// The loop body does no string work: requests address records by trace
// index, size classes come from the precomputed table, and the
// accumulators are slice-indexed; a steady-state pass allocates nothing.
//
// Each frame is served whole by one of two paths, chosen by the
// deployment (server.Deployment.FrameTable): through the batched kernel's
// cost table, or request by request through DoIndex when there is no
// table (DisableBatchReplay, an engine without static traces) or the
// frame carries a Delete or touches a deleted record. The two are
// bit-identical — same pricing constants, noise draws and LLC hit bits —
// so a run that mixes them equals the all-per-op run of the same trace.
//
// The cut-offs live here and nowhere else. Cancellation is polled once
// per frame, which bounds its wall-clock latency to microseconds (replay
// advances only simulated time). The budget (0 = unbounded) is an
// absolute clock bound checked after every request on both paths, so the
// error names the same run-global request index whichever path served
// the request that crossed it.
//
// Under a context from ShareLLC every request of the run, on either
// path, is priced from the share's LLC hit stream of w; AwaitFrame waits
// for the stream's producer to publish each frame.
//
// With an adaptive source configured (DESIGN.md §15) an epoch is a frame
// boundary: see epochs.
func replayFrames(ctx context.Context, d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum, budget simclock.Duration) (epochTelemetry, error) {
	var tel epochTelemetry
	frames, err := w.Frames()
	if err != nil {
		return tel, fmt.Errorf("client: opening trace: %w", err)
	}
	total := w.RequestCount()
	var ep *epochs
	if src, epochOps := d.AdaptiveSpec(); src != nil && epochOps > 0 {
		if ep, err = beginEpochs(src, epochOps, w); err != nil {
			return tel, err
		}
	}
	if sh := llcShareFrom(ctx); sh != nil {
		d.AttachLLCStream(sh, w)
	}
	start := d.Clock()
	var maxClock simclock.Duration
	if budget > 0 {
		maxClock = start + budget
	}
	overBudget := func() bool { return maxClock > 0 && d.Clock() > maxClock }
	done := 0
	for {
		if err := ctx.Err(); err != nil {
			return tel, err
		}
		keys, kinds, rw, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return tel, fmt.Errorf("client: decoding trace frame at request %d: %w", done, err)
		}
		if err := d.AwaitFrame(ctx, len(keys)); err != nil {
			return tel, err
		}
		served := len(keys)
		if t := d.FrameTable(keys, rw); t != nil {
			lat := t.Block()
			served = t.Serve(keys, kinds, maxClock, lat)
			a.foldBlock(keys[:served], kinds[:served], classes, lat[:served])
		} else {
			for i, k := range keys {
				kind := kvstore.OpKind(kinds[i])
				res := d.DoIndex(int(k), kind)
				a.observe(kind, int(classes[k]), float64(res.Latency.Nanoseconds()))
				if overBudget() {
					served = i + 1
					break
				}
			}
		}
		done += served
		// The run's last epoch is not observed: no requests remain to
		// recoup a migration, so consulting the policy there could only
		// burn simulated time.
		if ep != nil && !overBudget() && done < total && ep.frame(keys, kinds, done) {
			ep.migrate(d, done, &tel)
		}
		if overBudget() {
			return tel, fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
				ErrRunTimeout, done, total, d.Clock()-start, budget)
		}
	}
	if done != total {
		return tel, fmt.Errorf("client: trace stream ended after %d of %d requests", done, total)
	}
	if ep != nil && total > 0 {
		tel.epochs++ // the unobserved last epoch
	}
	return tel, nil
}

// mergedHistogram folds the per-size-class histograms of both request
// kinds into one run-level histogram. Since each request was recorded in
// exactly one class, the merged counts, extrema and quantiles equal those
// of a histogram fed directly per request.
func mergedHistogram(groups ...[]BucketHistogram) *stats.Histogram {
	h := newLatencyHistogram()
	for _, g := range groups {
		for _, bh := range g {
			h.Merge(bh.Hist)
		}
	}
	return h
}

// ErrRunTimeout marks a run whose simulated clock exceeded RunCtx's
// budget. Detect with errors.Is.
var ErrRunTimeout = errors.New("client: run exceeded simulated time budget")

// RunCtx replays the workload trace against an already-loaded
// deployment, with cancellation and a simulated-time budget (0 =
// unbounded). A run cut off by either returns the error and no stats:
// partial measurements are discarded, never folded into means.
func RunCtx(ctx context.Context, d *server.Deployment, w *ycsb.Workload, budget simclock.Duration) (RunStats, error) {
	start := d.Clock()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	tel, err := replayFrames(ctx, d, w, classes, a, budget)
	if err != nil {
		return RunStats{}, err
	}
	requests := w.RequestCount()
	runtime := d.Clock() - start
	reads, readSum := a.readHists.countAndSum()
	writes, writeSum := a.writeHists.countAndSum()
	out := RunStats{
		Workload: w.Spec.Name,
		Engine:   d.Engine().String(),
		Requests: requests,
		Reads:    reads,
		Writes:   writes,
		Runtime:  runtime,
	}
	if runtime > 0 {
		out.ThroughputOpsSec = float64(requests) / runtime.Seconds()
	}
	out.ReadBuckets = a.readHists.bucketStats()
	out.WriteBuckets = a.writeHists.bucketStats()
	out.ReadLatency = a.readHists.histograms()
	out.WriteLatency = a.writeHists.histograms()
	hist := mergedHistogram(out.ReadLatency, out.WriteLatency)
	if reads > 0 {
		out.AvgReadNs = readSum / float64(reads)
	}
	if writes > 0 {
		out.AvgWriteNs = writeSum / float64(writes)
	}
	out.AvgNs = hist.Mean()
	out.P50Ns = hist.Quantile(0.50)
	out.P95Ns = hist.Quantile(0.95)
	out.P99Ns = hist.Quantile(0.99)
	out.MaxNs = hist.Max()
	out.LLCHitRate = d.LLCHitRate()
	out.Epochs = tel.epochs
	out.MovesApplied = tel.moves
	out.MigratedBytes = tel.bytes
	out.MigrationNs = tel.costNs
	out.EpochTraffic = tel.traffic
	return out, nil
}

// Execute builds a fresh deployment, loads the dataset under the given
// placement (the untimed load phase) and replays the trace.
func Execute(cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	return ExecuteCtx(context.Background(), cfg, w, p)
}

// ExecuteCtx is Execute with cancellation.
//
// When cfg.Obs is set, each execution journals measurement start/finish
// events and publishes run/op counters; the deployment's own counters
// are flushed even when the replay fails mid-run, so partial runs stay
// observable.
// With cfg.Shards ≥ 1 execution routes through the consistent-hash
// cluster (sharded.go); Shards=1 is bit-identical to the unsharded
// path, per the golden equivalence tests.
func ExecuteCtx(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	if cfg.Shards >= 1 {
		st, _, err := executeShardedFresh(ctx, cfg, w, p)
		return st, err
	}
	st, _, err := executeFresh(ctx, cfg, w, p)
	return st, err
}

// executeFresh is ExecuteCtx returning the deployment it built, so
// callers that run the workload repeatedly (ExecuteMean's repetitions)
// can keep a batch-capable deployment and rewind it with executeReused
// instead of re-populating the store per run. The deployment is non-nil
// exactly when Load succeeded.
func executeFresh(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, *server.Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, nil, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	st, err := runAndFlush(ctx, cfg, w, d)
	return st, d, err
}

// executeReused is executeFresh against a deployment kept from an
// earlier repetition: the populated store is rewound to its post-Load
// snapshot under the new seed (server.Deployment.ResetRun) instead of
// being rebuilt. The event and counter sequence — measurement start,
// deployment counted, run counters — is emitted
// in the fresh path's order, so an observer cannot tell the two paths
// apart. Valid only for deployments cached via canReuse.
func executeReused(ctx context.Context, cfg server.Config, w *ycsb.Workload, d *server.Deployment) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	if !d.ResetRun(cfg.Seed) {
		return RunStats{}, fmt.Errorf("client: cached deployment lost its batch table")
	}
	return runAndFlush(ctx, cfg, w, d)
}

// canReuse reports whether a deployment that just executed a workload
// can serve further repetitions via ResetRun: it holds a cost table, it
// has not migrated, and the run served every frame through the kernel
// (server.Deployment.Rewindable).
func canReuse(d *server.Deployment) bool { return d != nil && d.Rewindable() }

// runAndFlush is the shared back half of the execute paths: the replay,
// the post-run telemetry flush (covering complete and failed replays
// alike) and the run-level counters and journal events.
func runAndFlush(ctx context.Context, cfg server.Config, w *ycsb.Workload, d *server.Deployment) (RunStats, error) {
	st, err := RunCtx(ctx, d, w, 0)
	d.FlushObs() // publish op/LLC counts of complete AND failed replays
	if err != nil {
		cfg.Obs.Counter("mnemo_client_run_failures_total").Inc()
		return st, err
	}
	publishRun(cfg, w.Spec.Name, st)
	return st, err
}

// publishRun records a completed run on cfg.Obs: the run, op, read and
// write counters, the adaptive migration ledger (epochs, records
// migrated, bytes copied — emitted only by a run that had epochs, so a
// static run's metrics are unchanged) and the measurement-end event.
func publishRun(cfg server.Config, workload string, st RunStats) {
	sink := cfg.Obs
	sink.Counter("mnemo_client_runs_total").Inc()
	sink.Counter("mnemo_client_ops_total").Add(int64(st.Requests))
	sink.Counter("mnemo_client_reads_total").Add(int64(st.Reads))
	sink.Counter("mnemo_client_writes_total").Add(int64(st.Writes))
	if st.Epochs > 0 {
		sink.Counter("mnemo_client_epochs_total").Add(int64(st.Epochs))
		sink.Counter("mnemo_client_migrations_total").Add(int64(st.MovesApplied))
		sink.Counter("mnemo_client_migrated_bytes_total").Add(st.MigratedBytes)
	}
	sink.Eventf(obs.EventMeasureEnd, "client", st.Runtime, "%s on %s: %d ops, %.0f ops/s",
		workload, cfg.Engine, st.Requests, st.ThroughputOpsSec)
}

// ExecuteMean runs the workload `runs` times with distinct noise seeds
// and returns the per-field means — the paper reports "the mean of
// multiple experiment runs". Percentiles are averaged across runs.
// Repetitions execute in parallel across a bounded worker pool; see
// ExecuteMeanWorkers for the determinism contract.
func ExecuteMean(cfg server.Config, w *ycsb.Workload, p server.Placement, runs int) (RunStats, error) {
	return ExecuteMeanWorkers(cfg, w, p, runs, 0)
}

// ExecuteMeanWorkers is ExecuteMean with an explicit worker bound
// (≤ 0 = GOMAXPROCS). Each repetition is an independent simulation —
// its own deployment, noise stream seeded from the run index, and
// accumulators — and results are folded in run-index order, so the
// returned RunStats are bit-identical for every worker count: workers=1
// is the serial reference execution of the same code path.
func ExecuteMeanWorkers(cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int) (RunStats, error) {
	return ExecuteMeanCtx(context.Background(), cfg, w, p, runs, workers)
}
