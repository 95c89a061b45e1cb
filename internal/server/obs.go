package server

import (
	"mnemo/internal/obs"
)

// deployTelemetry is a deployment's pre-resolved observability state.
// With no sink configured every field is nil and each hook degrades to a
// single inert branch, keeping the request path allocation-free and the
// simulated measurements bit-identical: nothing here touches the clock,
// the noise stream or the accumulators.
//
// Op and LLC counts are flushed at run granularity (FlushObs) rather
// than per request, so a live sink adds no atomics to the replay loop
// either.
type deployTelemetry struct {
	sink *obs.Sink
	ops  *obs.Counter // mnemo_server_ops_total{engine=…}
	hits *obs.Counter // mnemo_server_llc_hits_total
	miss *obs.Counter // mnemo_server_llc_misses_total

	// Flush cursors: FlushObs publishes only the delta since the last
	// flush, so calling it more than once per deployment is harmless.
	flushedOps          int
	flushedHits, flMiss int64
}

// initTelemetry resolves the deployment's metric handles once, at
// construction.
func (d *Deployment) initTelemetry() {
	s := d.cfg.Obs
	if s == nil {
		return
	}
	engine := d.cfg.Engine.String()
	d.telem = deployTelemetry{
		sink: s,
		ops:  s.Counter(obs.Name("mnemo_server_ops_total", "engine", engine)),
		hits: s.Counter("mnemo_server_llc_hits_total"),
		miss: s.Counter("mnemo_server_llc_misses_total"),
	}
	s.Counter(obs.Name("mnemo_server_deployments_total", "engine", engine)).Inc()
}

// framePathLabels and repriceCauseLabels are the label values of the
// replay loop's traffic record: which path FrameTable sent each frame
// down, and why the cost table was re-priced.
var (
	framePathLabels    = [...]string{pathKernel: "kernel", pathPerOp: "perop"}
	repriceCauseLabels = [...]string{causeLoad: "load", causeMigrate: "migrate", causeStructural: "structural"}
)

// flushTallies adds each non-zero tally to the counter labelled with its
// index's value and zeroes it.
func (t *deployTelemetry) flushTallies(name, label string, values []string, tallies []int64) {
	for i, n := range tallies {
		if n > 0 {
			t.sink.Counter(obs.Name(name, label, values[i])).Add(n)
			tallies[i] = 0
		}
	}
}

// FlushObs publishes the deployment's accumulated op and LLC hit/miss
// counts, the requests priced from a shared LLC stream, and the
// frame-path, re-price and re-priced-row tallies, to the configured sink — the run-granularity flush the client calls after
// a replay (including a replay cut off mid-run, so partial runs stay
// observable).
// It is a no-op without a sink and idempotent per served request:
// repeated flushes publish only new deltas.
func (d *Deployment) FlushObs() {
	t := &d.telem
	if t.sink == nil {
		return
	}
	t.flushTallies("mnemo_client_frames_total", "path", framePathLabels[:], d.frames[:])
	t.flushTallies("mnemo_server_reprice_total", "cause", repriceCauseLabels[:], d.repriced[:])
	t.flushTallies("mnemo_server_reprice_rows_total", "cause", repriceCauseLabels[:], d.repricedRows[:])
	if d.streamReqs > 0 {
		t.sink.Counter("mnemo_server_llc_stream_requests_total").Add(d.streamReqs)
		d.streamReqs = 0
	}
	t.ops.Add(int64(d.ops - t.flushedOps))
	t.flushedOps = d.ops
	h, m := d.llcHits, d.llcMisses
	if h < t.flushedHits || m < t.flMiss {
		// The LLC tallies were reset (a reload between runs); restart the
		// cursors rather than publish a negative delta.
		t.flushedHits, t.flMiss = 0, 0
	}
	t.hits.Add(h - t.flushedHits)
	t.miss.Add(m - t.flMiss)
	t.flushedHits, t.flMiss = h, m
}
