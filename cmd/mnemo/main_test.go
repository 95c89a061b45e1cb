package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonUnmarshal is a tiny indirection so the test reads naturally.
func jsonUnmarshal(data []byte, v interface{}) error { return json.Unmarshal(data, v) }

// osReadFile is aliased for symmetry with jsonUnmarshal.
func osReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func TestRunTrendingToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-store", "redislike",
		"-keys", "300", "-requests", "3000", "-slo", "0.10",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "key,est_throughput_ops,cost_factor") {
		t.Errorf("stdout missing csv header: %q", stdout.String()[:40])
	}
	if !strings.Contains(stderr.String(), "advice") {
		t.Errorf("stderr missing advice: %s", stderr.String())
	}
	// 300 keys → 302 csv lines (header + origin + per-key rows).
	lines := strings.Count(stdout.String(), "\n")
	if lines != 302 {
		t.Errorf("csv lines = %d, want 302", lines)
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "curve.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "timeline", "-store", "memcachedlike", "-policy", "mnemot",
		"-keys", "200", "-requests", "2000", "-o", out, "-plot",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "curve written to") {
		t.Error("file write not reported")
	}
	if !strings.Contains(stderr.String(), "mnemot ordering") {
		t.Error("plot missing ordering label")
	}
	if stdout.Len() != 0 {
		t.Error("stdout should be empty when writing to a file")
	}
}

func TestRunSkipsOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-keys", "200", "-requests", "2000", "-o", "",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Error("output not skipped")
	}
}

func TestRunStdinWorkload(t *testing.T) {
	trace := "mnemo-workload,v1,mini\nrec,k1,100000\nrec,k2,100000\nop,k1,read\nop,k2,read\nop,k1,read\n"
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workload", "-", "-slo", "0", "-o", "-"},
		strings.NewReader(trace), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "workload mini") {
		t.Errorf("stdin workload not loaded: %s", stderr.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "ycsb_c", "-store", "redislike",
		"-keys", "200", "-requests", "2000", "-json",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]interface{}
	if err := jsonUnmarshal(stdout.Bytes(), &summary); err != nil {
		t.Fatalf("stdout not JSON: %v", err)
	}
	if summary["workload"] != "ycsb_c" {
		t.Errorf("workload = %v", summary["workload"])
	}
	if _, ok := summary["advice"]; !ok {
		t.Error("advice missing from JSON")
	}
	if _, ok := summary["curve"]; !ok {
		t.Error("curve missing from JSON")
	}
}

func TestRunHTMLReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-keys", "200", "-requests", "2000",
		"-html", out, "-o", "",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := osReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "Advised sizing", "Measured baselines", "trending"} {
		if !strings.Contains(html, want) {
			t.Errorf("html missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "html report written") {
		t.Error("html write not reported")
	}
}

func TestRunYCSBFWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "ycsb_f", "-keys", "100", "-requests", "1000", "-o", "",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "workload ycsb_f") {
		t.Error("F workload not loaded")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "bogus"},
		{"-store", "bogus", "-keys", "10", "-requests", "10"},
		{"-mode", "mnemot", "-keys", "10", "-requests", "10"}, // the pre-registry alias flag is gone
		{"-workload", "trending", "-p", "7", "-keys", "10", "-requests", "10"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(""), &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunMonitorImport(t *testing.T) {
	var capture strings.Builder
	capture.WriteString("OK\n")
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("item:%d", i%8)
		fmt.Fprintf(&capture, "1.0 [0 x] \"SET\" %q \"payload-payload\"\n", key)
		fmt.Fprintf(&capture, "1.1 [0 x] \"GET\" %q\n", key)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workload", "-", "-monitor", "-slo", "0.1", "-o", ""},
		strings.NewReader(capture.String()), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "workload redis_monitor") {
		t.Errorf("monitor workload not profiled: %s", stderr.String())
	}
}

func TestRunMonitorRequiresStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "trending", "-monitor"},
		strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Fatal("-monitor without -workload - accepted")
	}
}

func TestRunBadStdinWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workload", "-"}, strings.NewReader("not a csv"), &stdout, &stderr); err == nil {
		t.Fatal("garbage stdin accepted")
	}
}

func TestRunMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	html := filepath.Join(t.TempDir(), "report.html")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-store", "redislike",
		"-keys", "300", "-requests", "3000", "-o", "",
		"-metrics", path, "-html", html,
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := osReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE mnemo_client_runs_total counter",
		`mnemo_server_ops_total{engine="redislike"}`,
		`mnemo_stage_runs_total{stage="measure"} 1`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "== run timeline ==") {
		t.Error("run timeline missing from stderr")
	}
	page, err := osReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "Observability") {
		t.Error("html report missing observability section")
	}
}

func TestRunMetricsToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-store", "redislike",
		"-keys", "200", "-requests", "2000", "-o", "", "-metrics", "-",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "mnemo_client_runs_total") {
		t.Error("metrics missing from stderr with -metrics -")
	}
}
