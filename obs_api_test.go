package mnemo

import (
	"bytes"
	"reflect"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
)

// TestObsGoldenEquivalence pins the observability layer's cardinal rule:
// attaching a live sink changes nothing about the simulation. The same
// options with and without Options.Obs must produce bit-identical
// baseline RunStats and byte-identical curve CSV output.
func TestObsGoldenEquivalence(t *testing.T) {
	w := smallWorkload(t)
	opts := Options{Store: DynamoLike, Seed: 11, Runs: 2, SLO: 0.10, Policy: "mnemot"}

	plain, err := Profile(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink()
	opts.Obs = sink
	observed, err := Profile(w, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Baselines, observed.Baselines) {
		t.Errorf("baselines differ with a live sink:\nnil sink:  %+v\nlive sink: %+v",
			plain.Baselines, observed.Baselines)
	}
	var want, got bytes.Buffer
	if err := plain.Curve.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := observed.Curve.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("curve CSV bytes differ with a live sink")
	}

	// And the sink actually observed the run.
	if n := sink.Counter("mnemo_client_runs_total").Value(); n != 4 {
		t.Errorf("mnemo_client_runs_total = %d, want 4 (2 runs × 2 baselines)", n)
	}
	if ops := sink.Counter(obs.Name("mnemo_server_ops_total", "engine", "dynamolike")).Value(); ops == 0 {
		t.Error("no server ops recorded")
	}
	if res := sink.Counter(obs.Name("mnemo_registry_policy_resolutions_total", "policy", "mnemot")).Value(); res != 1 {
		t.Errorf("policy resolutions = %d, want 1", res)
	}
	if sink.Journal().Len() == 0 {
		t.Error("journal empty after an observed profile")
	}
}

// TestObsSinkExposition smoke-tests the public sink surface: metrics
// collected through Options.Obs render as Prometheus exposition text.
func TestObsSinkExposition(t *testing.T) {
	w := smallWorkload(t)
	sink := NewSink()
	if _, err := Profile(w, Options{Store: RedisLike, Seed: 3, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mnemo_client_runs_total counter",
		`mnemo_server_ops_total{engine="redislike"}`,
		`mnemo_stage_wall_seconds_bucket{stage="measure",le="+Inf"}`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestObsFrameTrafficRecord pins what the replay loop's traffic record
// says about the two extreme traces, through the whole Profile pipeline:
// a read/write trace is served by the kernel alone, one table price per
// loaded deployment; in a capture with a Delete in every frame, every
// frame is mixed where re-pricing after a Delete is bounded — the hash
// engine re-prices the relaid chain, the slab engine's Delete writes one
// not-found row and its reads of the deleted record stay on the kernel —
// while the tree engine, whose journal is unbounded, serves every frame
// per-op and — the table being priced only when a frame it could serve
// arrives — never prices it. The request counters cover the trace.
func TestObsFrameTrafficRecord(t *testing.T) {
	frames := func(sink *Sink, path string) int64 {
		return sink.Counter(obs.Name("mnemo_client_frames_total", "path", path)).Value()
	}
	requests := func(sink *Sink, path string) int64 {
		return sink.Counter(obs.Name("mnemo_client_requests_total", "path", path)).Value()
	}
	reprices := func(sink *Sink, cause string) int64 {
		return sink.Counter(obs.Name("mnemo_server_reprice_total", "cause", cause)).Value()
	}
	rows := func(sink *Sink, cause string) int64 {
		return sink.Counter(obs.Name("mnemo_server_reprice_rows_total", "cause", cause)).Value()
	}

	w := smallWorkload(t)
	sink := NewSink()
	if _, err := Profile(w, Options{Store: RedisLike, Seed: 3, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if k, p, m := frames(sink, "kernel"), frames(sink, "perop"), frames(sink, "mixed"); k != 2*2 || p != 0 || m != 0 {
		t.Errorf("read/write trace: %d kernel + %d per-op + %d mixed frames, want 2 baselines × 2 frames through the kernel", k, p, m)
	}
	if k, p := requests(sink, "kernel"), requests(sink, "perop"); k != 2*int64(len(w.Ops)) || p != 0 {
		t.Errorf("read/write trace: %d kernel + %d per-op requests, want all %d on the kernel", k, p, 2*len(w.Ops))
	}
	if n := reprices(sink, "load"); n != 2 || reprices(sink, "structural")+reprices(sink, "migrate") != 0 {
		t.Errorf("read/write trace: %d load re-prices, want one per baseline deployment and no other", n)
	}

	deletes := 0
	for i := 17; i < len(w.Ops); i += 1000 {
		w.Ops[i].Kind = kvstore.Delete
		deletes++
	}
	capture := &Workload{Spec: w.Spec, Dataset: w.Dataset, Ops: w.Ops}
	for _, store := range []Engine{RedisLike, MemcachedLike, DynamoLike} {
		sink = NewSink()
		if _, err := Profile(capture, Options{Store: store, Seed: 3, Obs: sink}); err != nil {
			t.Fatal(err)
		}
		k, p := requests(sink, "kernel"), requests(sink, "perop")
		if k+p != 2*int64(len(w.Ops)) {
			t.Errorf("%v: %d kernel + %d per-op requests, want %d in all", store, k, p, 2*len(w.Ops))
		}
		if store == DynamoLike {
			if f := frames(sink, "perop"); f != 2*2 || k != 0 {
				t.Errorf("%v, Delete in every frame: %d per-op frames and %d kernel requests, want all 4 frames per-op", store, f, k)
			}
			if n := reprices(sink, "load") + reprices(sink, "structural"); n != 0 {
				t.Errorf("%v, Delete in every frame: table priced %d times, want never", store, n)
			}
			continue
		}
		if m := frames(sink, "mixed"); m != 2*2 {
			t.Errorf("%v, Delete in every frame: %d mixed frames, want all 4", store, m)
		}
		if n := rows(sink, "structural"); n >= int64(2*deletes*16) {
			t.Errorf("%v: %d rows re-priced for %d Deletes, want O(journal) per Delete", store, n, 2*deletes)
		}
		if store == MemcachedLike && p != 2*int64(deletes) {
			t.Errorf("%v: %d per-op requests, want the %d Deletes alone", store, p, 2*deletes)
		}
	}
}
