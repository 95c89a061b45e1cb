package main

// Tests of the -trace flag: profiling a binary .mtrc trace streamed
// from disk through the standard pipeline.

import (
	"bytes"
	"path/filepath"
	"regexp"
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

// TestRunTraceAdaptiveMatchesInMemory: a .mtrc trace goes through the
// same frame loop as the in-memory workload it was written from, so an
// adaptive run (an epoch is a frame boundary) and a 4-shard run (the
// partitioner reads the file twice and re-streams each per-shard spool)
// must print the same -json summary (or curve csv) on stdout and the
// same stderr (baselines, advice, the static-vs-adaptive line) byte for
// byte. Every spool is unlinked once open, so none may be left in
// TMPDIR.
func TestRunTraceAdaptiveMatchesInMemory(t *testing.T) {
	w, err := loadWorkload("hot_drift", 42, 300, 3*4096, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "drift.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	t.Setenv("TMPDIR", spool)
	adaptive := []string{"-store", "dynamolike", "-seed", "42", "-slo", "0.01", "-policy", "adaptive-freq",
		"-epoch-ops", "4096", "-migration-cost", "0.5"}
	adapted := regexp.MustCompile(`(?m)^adaptive \(adaptive-freq, epoch 4096 ops\): .*; 3 epochs, [1-9][0-9]* moves`)
	for _, row := range []struct {
		flags  []string
		stderr *regexp.Regexp
	}{
		{append(adaptive, "-json"), adapted},
		{append(adaptive, "-o", "-"), adapted}, // the whole curve csv
		{[]string{"-store", "redislike", "-seed", "42", "-slo", "0.05", "-shards", "4", "-json"},
			regexp.MustCompile(`(?m)^cluster: 4 consistent-hash shards`)},
	} {
		outcome := func(source ...string) (string, string) {
			var stdout, stderr bytes.Buffer
			if err := run(append(source, row.flags...), strings.NewReader(""), &stdout, &stderr); err != nil {
				t.Fatalf("%v %v: %v", source, row.flags, err)
			}
			return stdout.String(), stderr.String()
		}
		memOut, memErr := outcome("-workload", "hot_drift", "-keys", "300", "-requests", "12288")
		fileOut, fileErr := outcome("-trace", path)
		if !row.stderr.MatchString(fileErr) {
			t.Fatalf("%v: stderr lacks %v:\n%s", row.flags, row.stderr, fileErr)
		}
		if fileOut != memOut {
			t.Errorf("%v: stdout of the streamed trace differs from the in-memory workload's:\n%s\nvs\n%s", row.flags, fileOut, memOut)
		}
		if fileErr != memErr {
			t.Errorf("%v: stderr of the streamed trace differs from the in-memory workload's:\n%s\nvs\n%s", row.flags, fileErr, memErr)
		}
		if left, _ := filepath.Glob(filepath.Join(spool, "mnemo-shard-*.mtrc")); len(left) > 0 {
			t.Errorf("%v: spool files left behind: %v", row.flags, left)
		}
	}
}
