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
	d.telem = deployTelemetry{
		sink: s,
		ops:  s.Counter(obs.Name("mnemo_server_ops_total", "engine", d.cfg.Engine.String())),
		hits: s.Counter("mnemo_server_llc_hits_total"),
		miss: s.Counter("mnemo_server_llc_misses_total"),
	}
	d.telem.countDeployment(d.cfg.Engine)
}

// countDeployment counts one deployment of the engine — one per lane, so
// a lane's metric stream is the one a deployment of its own would make.
func (t *deployTelemetry) countDeployment(e Engine) {
	if t.sink != nil {
		t.sink.Counter(obs.Name("mnemo_server_deployments_total", "engine", e.String())).Inc()
	}
}

// framePathLabels and repriceCauseLabels are the label values of the
// replay loop's traffic record: which path FrameTable sent each frame
// and each request down, and why the cost table was re-priced.
var (
	framePathLabels    = [...]string{pathKernel: "kernel", pathPerOp: "perop", pathMixed: "mixed"}
	repriceCauseLabels = [...]string{causeLoad: "load", causeMigrate: "migrate", causeStructural: "structural"}
	streamSourceLabels = [...]string{sourceWalk: "walk", sourceMemo: "memo"}
)

// flushTallies adds each non-zero tally, times lanes, to the counter
// labelled with its index's value and zeroes it.
func (t *deployTelemetry) flushTallies(name, label string, values []string, tallies []int64, lanes int64) {
	for i, n := range tallies {
		if n > 0 {
			t.sink.Counter(obs.Name(name, label, values[i])).Add(n * lanes)
			tallies[i] = 0
		}
	}
}

// FlushObs publishes the deployment's accumulated op and LLC hit/miss
// counts, the requests priced from a shared LLC stream, the streams its
// runs walked or took from the workload's memo, and the frame-path,
// request-path, re-price and re-priced-row tallies, to the
// configured sink — the run-granularity flush the client calls after a
// replay (including one that failed or was cancelled between frames, so
// partial runs stay observable).
// It is a no-op without a sink and idempotent per served request:
// repeated flushes publish only new deltas.
//
// Every lane serves every request of the walk, so each count is
// published once per lane: a deployment of n lanes publishes what n
// deployments of one lane each would.
// A stream is the one exception: n deployments of one lane each under
// one share would walk it once too.
func (d *Deployment) FlushObs() {
	t := &d.telem
	if t.sink == nil {
		return
	}
	lanes := int64(len(d.lanes))
	t.flushTallies("mnemo_client_frames_total", "path", framePathLabels[:], d.frames[:], lanes)
	t.flushTallies("mnemo_client_requests_total", "path", framePathLabels[:], d.reqs[:], lanes)
	t.flushTallies("mnemo_server_reprice_total", "cause", repriceCauseLabels[:], d.repriced[:], lanes)
	t.flushTallies("mnemo_server_reprice_rows_total", "cause", repriceCauseLabels[:], d.repricedRows[:], lanes)
	if d.streamReqs > 0 {
		t.sink.Counter("mnemo_server_llc_stream_requests_total").Add(d.streamReqs * lanes)
		d.streamReqs = 0
	}
	t.flushTallies("mnemo_server_llc_streams_total", "source", streamSourceLabels[:], d.streams[:], 1)
	t.ops.Add(int64(d.ops-t.flushedOps) * lanes)
	t.flushedOps = d.ops
	h, m := d.llcHits, d.llcMisses
	if h < t.flushedHits || m < t.flMiss {
		// The LLC tallies were reset (a reload between runs); restart the
		// cursors rather than publish a negative delta.
		t.flushedHits, t.flMiss = 0, 0
	}
	t.hits.Add((h - t.flushedHits) * lanes)
	t.miss.Add((m - t.flMiss) * lanes)
	t.flushedHits, t.flMiss = h, m
}
