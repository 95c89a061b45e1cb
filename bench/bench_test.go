package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// benchmarkJSON is the driver's contract file.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricSpec  `json:"end_to_end"`
	PerLayer   []metricSpec  `json:"per_layer"`
}

func wantBenchmarkJSON() []byte {
	spec := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BENCHMARK.json and the tables in spec.go must name the same metrics,
// bounds and workloads: the driver reads one, -compare the other.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantBenchmarkJSON()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of date with spec.go; run go test -run TestBenchmarkJSONMatchesSpec -update", path)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) runConfig {
	return runConfig{workload: workload, seed: seed, seconds: 0.01, trace: trace, tiny: true,
		tmpDir: t.TempDir(), setups: 1, minOps: 2}
}

// Every workload completes both passes at -tiny scale with no failed
// operation, emits exactly the metrics BENCHMARK.json names, and prints
// the same digest traced and untraced. Seed 2 guards against anything
// tied to seed 1.
func TestTinyWorkloads(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		digests := map[string]string{}
		for _, def := range workloads {
			for _, pass := range []struct {
				trace bool
				specs []metricSpec
			}{{false, endToEnd}, {true, perLayer}} {
				res, info, err := runWorkload(tinyConfig(t, def.Name, seed, pass.trace))
				if err != nil {
					t.Fatalf("seed %d %s trace=%v: %v", seed, def.Name, pass.trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("seed %d %s trace=%v: correct=%v failed=%d/%d %v",
						seed, def.Name, pass.trace, res.Correct, res.Failed, res.Attempted, info.Failures)
				}
				if len(res.Metrics) != len(pass.specs) {
					t.Errorf("%s trace=%v: %d metrics, want %d", def.Name, pass.trace, len(res.Metrics), len(pass.specs))
				}
				for _, m := range pass.specs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", def.Name, pass.trace, m.Name, got.Unit, m.Unit)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q breaks the naming rule", m.Name)
					}
				}
				if prev, ok := digests[def.Name]; ok && prev != info.Digest {
					t.Errorf("seed %d %s: traced digest %s, untraced %s", seed, def.Name, info.Digest, prev)
				}
				digests[def.Name] = info.Digest
			}
		}
		if digests["stream_mtrc"] != digests["static_inmem"] {
			t.Errorf("seed %d: stream_mtrc digest %s differs from static_inmem %s",
				seed, digests["stream_mtrc"], digests["static_inmem"])
		}
	}
}

// One flipped payload byte in the spilled trace makes every stream_mtrc
// operation count as failed; nothing panics.
func TestCorruptTraceFailsOps(t *testing.T) {
	cfg := tinyConfig(t, "stream_mtrc", 1, false)
	cfg.afterSetUp = func(in *inputs) error {
		data, err := os.ReadFile(in.tracePath)
		if err != nil {
			return err
		}
		data[len(data)*3/4] ^= 0x40
		return os.WriteFile(in.tracePath, data, 0o644)
	}
	res, info, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupt trace: correct=%v failed=%d/%d %v", res.Correct, res.Failed, res.Attempted, info.Failures)
	}
}

func testSet(value float64) *resultSet {
	set := &resultSet{Seed: 1, Workloads: map[string]map[string]passResult{}}
	for _, def := range workloads {
		passes := map[string]passResult{}
		for pass, specs := range map[string][]metricSpec{passEndToEnd: endToEnd, passPerLayer: perLayer} {
			pr := passResult{runInfo: runInfo{Digest: "0x1"}, result: result{Correct: true, Attempted: 2,
				Metrics: map[string]metricValue{}}}
			for _, m := range specs {
				pr.Metrics[m.Name] = metricValue{Value: value, Unit: m.Unit}
			}
			passes[pass] = pr
		}
		set.Workloads[def.Name] = passes
	}
	return set
}

func TestCompare(t *testing.T) {
	setMetric := func(set *resultSet, pass, name string, v float64) {
		set.Workloads["static_inmem"][pass].Metrics[name] = metricValue{Value: v}
	}
	cases := []struct {
		name   string
		mutate func(b *resultSet)
		want   int
	}{
		{"identical", func(*resultSet) {}, 0},
		{"lower-is-better within bound", func(b *resultSet) { setMetric(b, passEndToEnd, "advice_wall_s", 105) }, 0},
		{"lower-is-better outside bound", func(b *resultSet) { setMetric(b, passEndToEnd, "advice_wall_s", 130) }, 1},
		{"higher-is-better improved", func(b *resultSet) { setMetric(b, passEndToEnd, "trace_req_per_s", 200) }, 0},
		{"higher-is-better outside bound", func(b *resultSet) { setMetric(b, passEndToEnd, "trace_req_per_s", 70) }, 1},
		{"exact metric moved", func(b *resultSet) { setMetric(b, passEndToEnd, "cost_vs_dram_pct", 100.5) }, 1},
		{"exact layer metric moved", func(b *resultSet) { setMetric(b, passPerLayer, "tune.evals", 31) }, 1},
		{"unbounded layer metric moved", func(b *resultSet) { setMetric(b, passPerLayer, "server.serve_ns_per_req", 500) }, 0},
		{"digest changed", func(b *resultSet) {
			pr := b.Workloads["tune_sweep"][passEndToEnd]
			pr.Digest = "0x2"
			b.Workloads["tune_sweep"][passEndToEnd] = pr
		}, 1},
		{"failed operation", func(b *resultSet) {
			pr := b.Workloads["tune_sweep"][passPerLayer]
			pr.Failed = 1
			b.Workloads["tune_sweep"][passPerLayer] = pr
		}, 1},
	}
	for _, tc := range cases {
		a, b := testSet(100), testSet(100)
		tc.mutate(b)
		var out bytes.Buffer
		if got := compareSets(a, b, &out); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestCanRecordNeedsTwoProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := canRecord(); err == nil {
		t.Fatal("canRecord accepted GOMAXPROCS=1")
	}
}
