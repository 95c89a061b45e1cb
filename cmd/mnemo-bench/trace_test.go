package main

// Tests of the -trace flag: streamed .mtrc replay against the
// FastMem/SlowMem baseline pair on every engine.

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"mnemo/internal/experiments"
	"mnemo/internal/obs"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func writeBenchTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.mtrc")
	_, err := trace.GenerateFile(ycsb.Spec{
		Name: "bench_trace", Keys: 50, Requests: 500,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeThumbnail, Seed: 11,
	}, path)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTraceFlag(t *testing.T) {
	path := writeBenchTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-trace", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "trace bench_trace: 50 keys, 500 requests") {
		t.Fatalf("trace summary missing:\n%.200s", out)
	}
	for _, want := range []string{"redislike", "memcachedlike", "dynamolike", "FastMem", "SlowMem", "ops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay report missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "[trace replay done in") {
		t.Error("timing line missing")
	}
}

func TestRunTraceFlagErrors(t *testing.T) {
	path := writeBenchTrace(t)
	for _, args := range [][]string{
		{"-trace", filepath.Join(t.TempDir(), "absent.mtrc")},
		{"-trace", path, "table1"}, // experiment names do not apply
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunTraceWalksOncePerEngine: each engine's FastMem call walks the
// LLC stream and its SlowMem call reads that walk from the workload's
// memo — three walks and three memo reads over the three engines.
func TestRunTraceWalksOncePerEngine(t *testing.T) {
	path := writeBenchTrace(t)
	sink := obs.NewSink()
	scale := experiments.Quick
	scale.Obs = sink
	if err := runTrace(path, scale, 42, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	for source, want := range map[string]int64{"walk": 3, "memo": 3} {
		if got := sink.Counter(obs.Name("mnemo_server_llc_streams_total", "source", source)).Value(); got != want {
			t.Errorf("llc streams from %s = %d, want %d", source, got, want)
		}
	}
}
