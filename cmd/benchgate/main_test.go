package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestGatePassesOnCurrentTree(t *testing.T) {
	// testdata/current.txt is a real -count 5 run of the tracked
	// benchmarks on this tree; the gate must accept it.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/current.txt"}, &out)
	if err != nil {
		t.Fatalf("gate failed on current-tree fixture: %v\n%s", err, out.String())
	}
	for _, want := range []string{"BenchmarkReplayBatched", "BenchmarkValidateParallel", "BenchmarkReplaySharded", "BenchmarkReplayAdaptive", "BenchmarkReplayStreamed", "BenchmarkTuneSweep", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("report contains FAIL:\n%s", out.String())
	}
}

func TestGateFailsOnSyntheticSlowdown(t *testing.T) {
	// testdata/slowdown.txt is current.txt with the shipped-path timings
	// (Batched/Shards4/Adaptive/Streamed ns/req, Parallel/Memoized ns/op)
	// doubled: a 2x regression must trip every gate.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/slowdown.txt"}, &out)
	if err == nil {
		t.Fatalf("gate accepted a 2x slowdown:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "6 of 6 speedup gates failed") {
		t.Errorf("error = %v, want all gates failing", err)
	}
	if got := strings.Count(out.String(), "FAIL"); got != 6 {
		t.Errorf("report shows %d FAIL verdicts, want 6:\n%s", got, out.String())
	}
}

func TestGateFamilyToleranceCap(t *testing.T) {
	// The streamed family caps its tolerance at 10%: an ~18% erosion of
	// the streamed-over-batched ratio sits inside the global ±25%
	// envelope but past the family cap, so exactly that gate must trip.
	// The fixture is current.txt with the Streamed samples slowed to a
	// ratio of ~0.75 against a 0.91*0.9 = 0.819 family floor (the
	// global floor would be 0.91*0.75 = 0.68, which ~0.75 clears).
	raw, err := os.ReadFile("testdata/current.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "BenchmarkReplayStreamed/Streamed") {
			continue
		}
		lines = append(lines, line)
	}
	for _, v := range []string{"84.11", "89.45", "87.67", "86.24", "88.12"} {
		lines = append(lines, "BenchmarkReplayStreamed/Streamed 1500 "+strings.Replace(v, ".", "", 1)+"0000 ns/op "+v+" ns/req")
	}
	path := t.TempDir() + "/stream.txt"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-baseline", "../../BENCH_baseline.json", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 6") {
		t.Fatalf("family cap did not trip exactly once: err %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkReplayStreamed") || strings.Count(out.String(), "FAIL") != 1 {
		t.Errorf("wrong gate tripped:\n%s", out.String())
	}
}

func TestGateMultipleFilesAndZeroTolerance(t *testing.T) {
	// Samples may be split across files (one per package in CI); with
	// -tolerance 0 the floor equals the recorded baseline, which the
	// current fixture does not reach — deliberately strict.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "-tolerance", "0",
		"testdata/current.txt", "testdata/current.txt"}, &out)
	if err == nil {
		t.Fatalf("zero tolerance accepted sub-baseline speedups:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "n=10") {
		t.Errorf("samples from both files not pooled:\n%s", out.String())
	}
}

func TestGateRejectsBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{},                          // no bench files
		{"-tolerance", "1", "x"},    // tolerance outside [0,1)
		{"-tolerance", "-0.1", "x"}, // negative tolerance
		{"testdata/missing.txt"},    // unreadable bench file
		{"-baseline", "testdata/missing.json", "testdata/current.txt"}, // unreadable baseline
	} {
		var out bytes.Buffer
		if err := run(append([]string{}, args...), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestGateRejectsMissingSamples(t *testing.T) {
	// A truncated run (benchmark panicked, -bench regex too narrow) must
	// fail loudly rather than pass vacuously.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/empty.txt"}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("empty bench output not rejected: %v", err)
	}
}

func TestParseBench(t *testing.T) {
	input := `goos: linux
BenchmarkReplayBatched/Indexed-8   	     500	   3717369 ns/op	       371.7 ns/req
BenchmarkReplayBatched/Indexed     	     600	   3500000 ns/op	       350.0 ns/req
some unrelated line
PASS
`
	samples := map[string][]float64{}
	if err := parseBench(strings.NewReader(input), samples); err != nil {
		t.Fatal(err)
	}
	// The -8 CPU suffix is stripped, so both lines pool under one key.
	got := samples["BenchmarkReplayBatched/Indexed ns/req"]
	if len(got) != 2 || got[0] != 371.7 || got[1] != 350.0 {
		t.Errorf("ns/req samples = %v", got)
	}
	if ops := samples["BenchmarkReplayBatched/Indexed ns/op"]; len(ops) != 2 {
		t.Errorf("ns/op samples = %v", ops)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("even median = %v", got)
	}
}
