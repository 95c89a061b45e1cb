package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mnemo/internal/client"
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

func TestRunNoBatchBitIdentical(t *testing.T) {
	// -no-batch swaps the batched kernel for the per-op replay path; the
	// rendered experiment output must not change by a single byte.
	var batched, perOp bytes.Buffer
	var stderr bytes.Buffer
	if err := run([]string{"-quick", "-seed", "7", "fig9"}, &batched, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-seed", "7", "-no-batch", "fig9"}, &perOp, &stderr); err != nil {
		t.Fatal(err)
	}
	if batched.String() != perOp.String() {
		t.Errorf("-no-batch changed fig9 output:\nbatched:\n%s\nper-op:\n%s", batched.String(), perOp.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunChaosFlags(t *testing.T) {
	// A light fault schedule with a simulated-time budget must still
	// produce the experiment output: runs retry and degrade instead of
	// aborting the sweep.
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-seed", "7", "-fault", "0.05", "-fault-seed", "3", "-timeout", "600", "fig9"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Fig 9") {
		t.Error("fig9 output missing under fault injection")
	}
}

func TestRunRejectsBadChaosFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fault", "1.5", "table1"},
		{"-fault", "-0.1", "table1"},
		{"-timeout", "-1", "table1"},
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

func TestRunMetricsSurviveTimeout(t *testing.T) {
	// Every run stalls (probability 1) past a 1-simulated-second budget:
	// the sweep fails with ErrRunTimeout, and the -metrics dump must
	// still happen, carrying the timeout counters of the partial run.
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-quick", "-seed", "7", "-fault-stall", "1", "-timeout", "1",
		"-metrics", path, "fig9"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("all-stall schedule did not fail the sweep")
	}
	if !errors.Is(err, client.ErrRunTimeout) {
		t.Fatalf("error does not wrap ErrRunTimeout: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics not dumped after failure: %v", err)
	}
	re := regexp.MustCompile(`(?m)^mnemo_client_run_timeouts_total (\d+)$`)
	m := re.FindStringSubmatch(string(data))
	if m == nil {
		t.Fatalf("mnemo_client_run_timeouts_total missing from dump:\n%s", data)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Error("timeout counter is zero after an all-stall run")
	}
	if !strings.Contains(string(data), `mnemo_server_faults_total{kind="stall"}`) {
		t.Error("stall fault counter missing")
	}
}

func TestRunRejectsBadClassFaultFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-fail", "1.5", "table1"},
		{"-fault-stall", "2", "table1"},
		{"-fault-outlier", "9", "table1"},
		{"-fault-crash", "1.5", "cluster-sweep"},
		{"-fault-crash", "-0.1", "cluster-sweep"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunClusterShardFaultFlags(t *testing.T) {
	// Sharded chaos schedules must still complete the cluster sweep: a
	// faulted cluster run is retried, rejected as an outlier or dropped
	// by the repetition layer, exactly like an unsharded one.
	for _, chaos := range [][]string{
		{"-fault-crash", "0.1"},
		{"-fault", "0.1", "-timeout", "5"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-quick", "-seed", "7", "-shards", "4", "-fault-seed", "3"}, chaos...)
		if err := run(append(args, "cluster-sweep"), &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", chaos, err)
		}
		if !strings.Contains(stdout.String(), "Cluster sweep") {
			t.Errorf("%v: cluster sweep output missing under shard chaos", chaos)
		}
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
