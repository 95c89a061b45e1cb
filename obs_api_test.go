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
// loaded deployment; a capture with a Delete in every frame never takes
// the kernel and — the table being priced only when a frame it could
// serve arrives — never prices or re-prices it either.
func TestObsFrameTrafficRecord(t *testing.T) {
	frames := func(sink *Sink, path string) int64 {
		return sink.Counter(obs.Name("mnemo_client_frames_total", "path", path)).Value()
	}
	reprices := func(sink *Sink) (n int64) {
		for _, cause := range []string{"load", "migrate", "structural"} {
			n += sink.Counter(obs.Name("mnemo_server_reprice_total", "cause", cause)).Value()
		}
		return n
	}

	w := smallWorkload(t)
	sink := NewSink()
	if _, err := Profile(w, Options{Store: RedisLike, Seed: 3, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if k, p := frames(sink, "kernel"), frames(sink, "perop"); k != 2*2 || p != 0 {
		t.Errorf("read/write trace: %d kernel + %d per-op frames, want 2 baselines × 2 frames through the kernel", k, p)
	}
	if n := sink.Counter(obs.Name("mnemo_server_reprice_total", "cause", "load")).Value(); n != 2 || reprices(sink) != 2 {
		t.Errorf("read/write trace: %d load re-prices of %d, want one per baseline deployment and no other", n, reprices(sink))
	}

	for i := 17; i < len(w.Ops); i += 1000 {
		w.Ops[i].Kind = kvstore.Delete
	}
	capture := &Workload{Spec: w.Spec, Dataset: w.Dataset, Ops: w.Ops}
	sink = NewSink()
	if _, err := Profile(capture, Options{Store: RedisLike, Seed: 3, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if k, p := frames(sink, "kernel"), frames(sink, "perop"); k != 0 || p != 2*2 {
		t.Errorf("Delete in every frame: %d kernel + %d per-op frames, want all 4 per-op", k, p)
	}
	if n := reprices(sink); n != 0 {
		t.Errorf("Delete in every frame: table priced %d times, want never", n)
	}
}
