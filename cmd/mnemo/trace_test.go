package main

// Tests of the -trace flag: profiling a binary .mtrc trace streamed
// from disk through the standard pipeline.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cli.mtrc")
	_, err := trace.GenerateFile(ycsb.Spec{
		Name: "cli_trace", Keys: 60, Requests: 600,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: ycsb.SizeThumbnail, Seed: 3,
	}, path)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTraceFlag(t *testing.T) {
	path := writeTestTrace(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-trace", path, "-o", "-"}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "key,est_throughput_ops,cost_factor") {
		t.Fatalf("curve csv missing from stdout:\n%.200s", out)
	}
	if !strings.Contains(stderr.String(), "cli_trace") {
		t.Error("workload name missing from progress output")
	}
}

func TestRunTraceFlagErrors(t *testing.T) {
	path := writeTestTrace(t)
	cases := [][]string{
		{"-trace", filepath.Join(t.TempDir(), "absent.mtrc")},
		{"-trace", path, "-monitor"},
		{"-trace", path, "-keys", "10"},
		{"-trace", path, "-requests", "10"},
		{"-trace", path, "-epoch-ops", "256"}, // -epoch-ops needs an adaptive -policy, on any backing
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(""), &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunTraceAdaptiveMatchesInMemory: adaptive replay of a .mtrc trace
// goes through the same frame loop as the in-memory workload it was
// written from, so the curve and the static-vs-adaptive line must match
// byte for byte.
func TestRunTraceAdaptiveMatchesInMemory(t *testing.T) {
	w, err := loadWorkload("hot_drift", 42, 300, 3*4096, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "drift.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	adaptive := []string{"-store", "dynamolike", "-seed", "42", "-slo", "0.01",
		"-policy", "adaptive-freq", "-epoch-ops", "4096", "-migration-cost", "0.5", "-o", "-"}
	outcome := func(source ...string) (string, string) {
		var stdout, stderr bytes.Buffer
		if err := run(append(source, adaptive...), strings.NewReader(""), &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", source, err)
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "adaptive (") {
				return stdout.String(), line
			}
		}
		t.Fatalf("%v: no adaptive line on stderr:\n%s", source, stderr.String())
		return "", ""
	}
	wantCSV, wantLine := outcome("-workload", "hot_drift", "-keys", "300", "-requests", "12288")
	gotCSV, gotLine := outcome("-trace", path)
	if gotCSV != wantCSV {
		t.Error("curve csv of the streamed trace differs from the in-memory workload's")
	}
	if gotLine != wantLine {
		t.Errorf("adaptive outcome differs:\n  streamed:  %s\n  in-memory: %s", gotLine, wantLine)
	}
	if !strings.Contains(gotLine, "3 epochs") || strings.Contains(gotLine, " 0 moves") {
		t.Errorf("adaptive run did not adapt: %s", gotLine)
	}
}
