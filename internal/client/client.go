// Package client is the YCSB-like load driver of the reproduction: it
// replays a workload trace against a hybrid deployment (routing every
// request to the server instance that owns the key, as the paper's
// modified YCSB core module does) and measures what the paper measures —
// total runtime, throughput, average read/write response times, and the
// tail latencies of Fig 8d/8e.
package client

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/pool"
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

	// ReadLatency and WriteLatency carry the full per-size-class latency
	// histograms of the run (SizeBucket), feeding the size-aware estimate
	// (each class's exact Mean) and the tail-latency estimation extension
	// (internal/core TailEstimator). Empty classes are omitted.
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

// histograms lists a run's observed classes of one request kind:
// hists is indexed by size class, nil where unobserved.
func histograms(hists []*stats.Histogram) []BucketHistogram {
	var out []BucketHistogram
	for b, h := range hists {
		if h != nil {
			out = append(out, BucketHistogram{Bucket: b, Hist: h})
		}
	}
	return out
}

// classTotals derives one request kind's request count and exact
// latency sum from its class histograms, which track exact counts and
// sums as they record — so the replay loop keeps one accumulator per
// class instead of two. Classes are visited in ascending bucket order,
// so the sum is reproducible bit for bit.
func classTotals(bhs []BucketHistogram) (n int, sum float64) {
	for _, bh := range bhs {
		n += int(bh.Hist.N())
		sum += bh.Hist.Sum()
	}
	return n, sum
}

// deriveLatency fills every figure of st that its read and write class
// histograms determine: Reads and Writes, the per-kind averages and the
// run-level mean, percentiles and maximum. RunCtx derives a run's
// figures with it and mergeShardRuns a cluster's from the merged class
// histograms, so both are one derivation.
func (st *RunStats) deriveLatency() {
	var readSum, writeSum float64
	st.Reads, readSum = classTotals(st.ReadLatency)
	st.Writes, writeSum = classTotals(st.WriteLatency)
	if st.Reads > 0 {
		st.AvgReadNs = readSum / float64(st.Reads)
	}
	if st.Writes > 0 {
		st.AvgWriteNs = writeSum / float64(st.Writes)
	}
	// Each request was recorded in exactly one class, so the merged
	// counts, extrema and quantiles equal those of a histogram fed
	// directly per request.
	hist := newLatencyHistogram()
	for _, g := range [][]BucketHistogram{st.ReadLatency, st.WriteLatency} {
		for _, bh := range g {
			hist.Merge(bh.Hist)
		}
	}
	st.AvgNs = hist.Mean()
	st.P50Ns = hist.Quantile(0.50)
	st.P95Ns = hist.Quantile(0.95)
	st.P99Ns = hist.Quantile(0.99)
	st.MaxNs = hist.Max()
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
// separate from RunStats assembly so the steady-state per-request cost —
// and its allocation count, pinned at zero by the client tests — is
// exactly the fold below. It holds one laneAccum per lane of the
// deployment (server lanes.go), and the route of each of the
// server.FrameBuffers frame buffers: request i of a frame lands in
// histogram route[i] of every lane, its (kind, size class).
type replayAccum struct {
	lanes []*laneAccum
	// classes is the size-class count: the histogram table of a lane
	// holds the read classes, then the write classes from index classes
	// on.
	classes int
	route   [server.FrameBuffers][replayBlockOps]uint8
}

// laneAccum is one lane's accumulators: one size-class histogram per
// request kind is the complete state — counts, sums, means and buckets
// all derive from the class histograms afterwards.
type laneAccum struct {
	hists []*stats.Histogram // read classes, then write classes
}

// newReplayAccum sizes the accumulator for a dataset's size-class table:
// each half of a lane's table has a slot per class up to the largest one
// present. It starts with one lane; the replay loop adds the others.
func newReplayAccum(classes []uint8) *replayAccum {
	n := 0
	for _, c := range classes {
		n = max(n, int(c)+1)
	}
	a := &replayAccum{classes: n}
	a.ensureLanes(1)
	return a
}

// ensureLanes grows the accumulator to n lanes.
func (a *replayAccum) ensureLanes(n int) {
	for len(a.lanes) < n {
		a.lanes = append(a.lanes, &laneAccum{hists: make([]*stats.Histogram, 2*a.classes)})
	}
}

// setRoute writes the route of a frame's requests into route: the size
// class of record keys[i], offset into the write half for a write.
func (a *replayAccum) setRoute(route []uint8, keys []uint32, kinds []uint8, classes []uint8) {
	w := uint8(a.classes)
	for i, k := range keys {
		r := classes[k]
		if kinds[i] != uint8(kvstore.Read) {
			r += w
		}
		route[i] = r
	}
}

// fold folds a block of the lane's latencies, routed by route, into its
// histograms in request order, creating a class's histogram the first
// time it appears; stats.RecordBlock then records the whole block with
// one call.
func (l *laneAccum) fold(route []uint8, lat []simclock.Duration) {
	route = route[:len(lat)]
	for _, r := range route {
		if l.hists[r] == nil {
			l.hists[r] = newLatencyHistogram()
		}
	}
	stats.RecordBlock(l.hists, route, lat)
}

// readWrite returns the lane's read and write class histograms.
func (l *laneAccum) readWrite(classes int) (read, write []BucketHistogram) {
	return histograms(l.hists[:classes]), histograms(l.hists[classes:])
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
// Each frame is served run by run (serveFrame), each run down one of two
// paths chosen by the deployment (server.Deployment.FrameTable): through
// the batched kernel's cost table, or request by request through the
// engines — a Delete, a re-insert, a read with no cost row, or every
// request when there is no table (DisableBatchReplay, an engine without
// static traces). A read/write frame on live records is one kernel run.
// Either path is stage 1 of server.Deployment.ServeRun, and lane 0's
// stage prices both the same way — same pricing constants, noise draws
// and LLC hit bits — so a run that mixes them equals the all-per-op run
// of the same trace.
//
// A deployment of more than one lane (the two baselines of a measuring
// call) has its further lanes priced, and every lane folded, on a
// helper goroutine (laneHelper), frames behind: stage 1 and lane 0's
// price fill one of the deployment's frame buffers while the helper
// folds the ones before. A one-lane run folds inline.
//
// Cancellation lives here and nowhere else. It is polled once per
// frame, which bounds its wall-clock latency to microseconds (replay
// advances only simulated time), so every frame is served whole.
//
// A deployment attached to a measuring call's LLC share
// (server.Deployment.AttachLLCStream) prices every request of the run,
// on either path, from the share's hit stream of w, and AwaitFrame
// waits for the stream's producer to publish each frame; any other
// deployment walks its private walker.
//
// With an adaptive source configured (DESIGN.md §15) an epoch is a frame
// boundary: see epochs.
func replayFrames(ctx context.Context, d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum) (epochTelemetry, error) {
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
	a.ensureLanes(d.Lanes())
	var h *laneHelper
	if d.Lanes() > 1 {
		h = startLaneHelper(d, a)
		defer h.finish() // a run that fails returns after its helper exits
	}
	done := 0
	buf := 0
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
		if h != nil {
			buf = <-h.free
		}
		route := a.route[buf][:len(keys)]
		a.setRoute(route, keys, kinds, classes)
		f := d.Frame(buf)
		serveFrame(d, f, keys, kinds, rw)
		done += len(keys)
		if h != nil {
			h.work <- laneWork{buf: buf, n: len(keys)}
		} else {
			a.lanes[0].fold(route, f.Lat(0)[:len(keys)])
		}
		// The run's last epoch is not observed: no requests remain to
		// recoup a migration, so consulting the policy there could only
		// burn simulated time.
		if ep != nil && done < total && ep.frame(keys, kinds, done) {
			ep.migrate(d, done, &tel)
		}
	}
	if done != total {
		return tel, fmt.Errorf("client: trace stream ended after %d of %d requests", done, total)
	}
	if h != nil {
		if err := h.finish(); err != nil {
			return tel, err
		}
	}
	if ep != nil && total > 0 {
		tel.epochs++ // the unobserved last epoch
	}
	return tel, nil
}

// serveFrame serves one frame run by run into frame buffer f, each run
// down the path the deployment names (server.Deployment.FrameTable),
// leaving lane 0's latencies in f.Lat(0).
func serveFrame(d *server.Deployment, f *server.Frame, keys []uint32, kinds []uint8, rw bool) {
	lat := f.Lat(0)
	for from := 0; from < len(keys); {
		t, end := d.FrameTable(keys, kinds, rw, from)
		d.ServeRun(f, t, keys, kinds, from, end, lat[from:end])
		from = end
	}
}

// laneWork is one served frame handed to the lane helper: the frame
// buffer and the frame's request count.
type laneWork struct{ buf, n int }

// laneHelper folds lane 0 and prices and folds lanes 1.. of a run on
// its own goroutine, behind stage 1. The deployment's frame buffers
// circulate between the replay loop, which takes a free one from free,
// fills it and sends it on work, and the helper, which hands it back on
// free once every lane has folded it — so neither side ever touches a
// buffer the other holds, and nothing is allocated per frame. The
// helper runs outside the worker budget, like the LLC stream's
// producer: it only prices and folds, and the run's own worker waits on
// it when it falls behind.
type laneHelper struct {
	work   chan laneWork
	free   chan int
	done   chan struct{}
	closed bool  // work is closed
	err    error // a contained panic, read after done
}

// startLaneHelper starts the helper of a run of d's lanes into a.
func startLaneHelper(d *server.Deployment, a *replayAccum) *laneHelper {
	h := &laneHelper{work: make(chan laneWork, server.FrameBuffers), free: make(chan int, server.FrameBuffers), done: make(chan struct{})}
	for b := range server.FrameBuffers {
		h.free <- b
	}
	work := h.work
	go func() {
		defer close(h.done)
		for wk := range work {
			if h.err == nil {
				if perr := pool.Guard(0, func() { priceLanes(d, a, wk) }); perr != nil {
					h.err = fmt.Errorf("client: lane helper: %w", perr)
				}
			}
			h.free <- wk.buf
		}
	}()
	return h
}

// priceLanes folds every lane of one served frame, in lane order:
// lane 0 as stage 1 priced it, each lane after the first once it has
// priced the frame.
func priceLanes(d *server.Deployment, a *replayAccum, wk laneWork) {
	f, route := d.Frame(wk.buf), a.route[wk.buf][:wk.n]
	for k, la := range a.lanes {
		lat := f.Lat(k)[:wk.n]
		if k > 0 {
			d.PriceLane(f, k, wk.n, lat)
		}
		la.fold(route, lat)
	}
}

// finish waits for the helper to price every frame sent and returns
// its error. Calls after the first only wait.
func (h *laneHelper) finish() error {
	if !h.closed {
		close(h.work)
		h.closed = true
	}
	<-h.done
	return h.err
}

// RunCtx replays the workload trace against an already-loaded
// deployment, with cancellation, and returns lane 0's stats. A run cut
// off by cancellation returns the error and no stats: partial
// measurements are discarded, never folded into means. budget must be
// 0: a finite trace's replay always terminates, so there is no
// simulated-time budget, and RunCtx refuses any other value.
func RunCtx(ctx context.Context, d *server.Deployment, w *ycsb.Workload, budget simclock.Duration) (RunStats, error) {
	if budget != 0 {
		return RunStats{}, fmt.Errorf("client: RunCtx budget %v refused: there is no simulated-time budget, pass 0", budget)
	}
	sts, err := runLanes(ctx, d, w)
	if err != nil {
		return RunStats{}, err
	}
	return sts[0], nil
}

// walks counts the trace replays every deployment has served: one per
// run of a member deployment, whatever its lane count.
var walks atomic.Int64

// runLanes is RunCtx for every lane of the deployment: one replay, one
// RunStats per lane, in lane order.
func runLanes(ctx context.Context, d *server.Deployment, w *ycsb.Workload) ([]RunStats, error) {
	walks.Add(1)
	starts := make([]simclock.Duration, d.Lanes())
	for k := range starts {
		starts[k] = d.LaneClock(k)
	}
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	tel, err := replayFrames(ctx, d, w, classes, a)
	if err != nil {
		return nil, err
	}
	requests := w.RequestCount()
	out := make([]RunStats, len(starts))
	for k := range out {
		runtime := d.LaneClock(k) - starts[k]
		st := &out[k]
		*st = RunStats{
			Workload: w.Spec.Name,
			Engine:   d.Engine().String(),
			Requests: requests,
			Runtime:  runtime,
		}
		st.ReadLatency, st.WriteLatency = a.lanes[k].readWrite(a.classes)
		if runtime > 0 {
			st.ThroughputOpsSec = float64(requests) / runtime.Seconds()
		}
		st.deriveLatency()
		st.LLCHitRate = d.LLCHitRate()
		st.Epochs = tel.epochs
		st.MovesApplied = tel.moves
		st.MigratedBytes = tel.bytes
		st.MigrationNs = tel.costNs
		st.EpochTraffic = tel.traffic
	}
	return out, nil
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

// ExecuteMeanWorkers is a measuring call of one nameless leg (Measure):
// it runs the workload `runs` times with distinct noise seeds and
// returns the per-field means — the paper reports "the mean of multiple
// experiment runs"; percentiles are averaged across runs. Repetitions
// execute in parallel across at most `workers` goroutines (≤ 0 =
// GOMAXPROCS). Each repetition is an independent simulation — its own
// noise stream seeded from the run index, and its own accumulators — and
// results are folded in run-index order, so the returned RunStats are
// bit-identical for every worker count: workers=1 is the serial
// reference execution of the same code path.
func ExecuteMeanWorkers(cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int) (RunStats, error) {
	sts, err := Measure(context.Background(), w, runs, workers, cfg.Obs, []Leg{{Cfg: cfg, Placement: p}})
	if err != nil {
		return RunStats{}, err
	}
	return sts[0], nil
}
