package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mnemo/internal/trace"
)

func TestRunSelectedExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-quick", "table1", "table2", "fig4"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"######## table1", "######## table2", "######## fig4",
		"Table I", "Table II", "Fig 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "[table1 done in") {
		t.Error("timing lines missing")
	}
}

func TestRunMeasuredExperimentQuick(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-seed", "7", "fig9"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Fig 9") {
		t.Error("fig9 output missing")
	}
	// All five workload rows render.
	for _, wl := range []string{"trending", "news_feed", "timeline", "edit_thumbnail", "trending_preview"} {
		if !strings.Contains(stdout.String(), wl) {
			t.Errorf("fig9 missing row %s", wl)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsBadChaosFlags: the fault-injection flags are gone, so
// each is an unknown flag now; an out-of-range scale knob is rejected
// before anything runs.
func TestRunRejectsBadChaosFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fault", "0.1", "table1"},
		{"-fault-crash", "0.1", "cluster-sweep"},
		{"-timeout", "5", "table1"},
		{"-keys", "-5", "table1"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestExperimentListHasNoDuplicates(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.name] {
			t.Errorf("experiment %q registered twice", e.name)
		}
		seen[e.name] = true
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.name)
		}
	}
	if len(all) < 19 {
		t.Errorf("only %d experiments registered", len(all))
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-seed", "3", "-metrics", path, "fig5a"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE mnemo_client_runs_total counter",
		"mnemo_server_ops_total",
		"mnemo_pool_jobs_total",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "metrics written to") {
		t.Error("metrics write not reported on stderr")
	}
}

// TestRunMetricsSurviveFailure: a sweep that fails mid-run still dumps
// what it observed. The trace's last frame checksum is flipped, so the
// replay serves every frame before it and then fails.
func TestRunMetricsSurviveFailure(t *testing.T) {
	tracePath := writeBenchTrace(t)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(tracePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr bytes.Buffer
	err = run([]string{"-trace", tracePath, "-metrics", path}, &stdout, &stderr)
	if !errors.Is(err, trace.ErrChecksum) {
		t.Fatalf("err = %v, want trace.ErrChecksum", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics not dumped after failure: %v", err)
	}
	re := regexp.MustCompile(`(?m)^mnemo_client_run_failures_total (\d+)$`)
	m := re.FindStringSubmatch(string(data))
	if m == nil {
		t.Fatalf("mnemo_client_run_failures_total missing from dump:\n%s", data)
	}
	if n, _ := strconv.Atoi(m[1]); n != 1 {
		t.Errorf("failure counter %d, want 1", n)
	}
	if !strings.Contains(string(data), "mnemo_server_ops_total") {
		t.Error("op counter of the failed run missing")
	}
}

// TestRunClusterSweepDeterministic: the sharded cluster sweep prints the
// same stdout whatever the scheduler parallelism, and -shards 1 means
// the one deployment a flagless run uses, so fig8a prints the same
// stdout with and without it.
func TestRunClusterSweepDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	stdout := func(procs int, args ...string) string {
		runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("GOMAXPROCS=%d %v: %v", procs, args, err)
		}
		return stdout.String()
	}
	sweep := []string{"-quick", "-seed", "7", "-shards", "4", "cluster-sweep"}
	p1, p2 := stdout(1, sweep...), stdout(2, sweep...)
	if !strings.Contains(p1, "Cluster sweep") {
		t.Error("cluster sweep output missing")
	}
	if p1 != p2 {
		t.Fatalf("stdout differs between GOMAXPROCS 1 and 2:\n%s\nvs\n%s", p1, p2)
	}
	one, flagless := stdout(1, "-quick", "-shards", "1", "fig8a"), stdout(1, "-quick", "fig8a")
	if one != flagless {
		t.Fatalf("-shards 1 fig8a stdout differs from the flagless run:\n%s\nvs\n%s", one, flagless)
	}
}

func TestRunTuneSweepQuick(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-seed", "7", "tune-sweep"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"mnemo-tune search", "trending", "news_feed"} {
		if !strings.Contains(out, want) {
			t.Errorf("tune-sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunListPoliciesParams(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list-policies"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"knapsack", "anchor", "rungs", "decay", "default 3"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("catalog missing %q:\n%s", want, stdout.String())
		}
	}
}
