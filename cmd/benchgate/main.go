// Command benchgate is the CI perf-regression gate: it reads raw
// `go test -bench` output and fails when a tracked fast path has lost
// its measured speedup over the reference path it is paired with.
//
// Absolute ns/op are meaningless across CI hosts, so the gate never
// compares against recorded timings. Instead it recomputes the
// within-invocation speedup ratio — the reference benchmark and the
// current benchmark run back to back in the same process, so their
// ratio is stable even on noisy shared runners (see BENCH_baseline.json:
// "ratios within one invocation are stable") — and compares that
// against the ratio recorded in the baseline file, with a tolerance.
//
// Usage:
//
//	go test ./internal/client -run '^$' -bench BenchmarkReplay -count 5 > bench.txt
//	go test ./internal/core -run '^$' -bench BenchmarkValidateParallel -count 5 >> bench.txt
//	benchgate -baseline BENCH_baseline.json bench.txt
//
// Flags:
//
//	-baseline file   baseline JSON (default BENCH_baseline.json)
//	-tolerance t     allowed relative ratio erosion (default 0.25: fail
//	                 when the measured speedup drops below 75% of the
//	                 baseline speedup). Families with a tighter
//	                 acceptance bar (BenchmarkReplayStreamed: 10%) cap
//	                 their tolerance below the flag.
//
// With -count N each benchmark reports N samples; the gate takes the
// median per benchmark before forming ratios, benchstat-style.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gate pairs a legacy benchmark with its optimized counterpart. The
// recorded speedup comes from the baseline file's entry for Bench
// (speedup_median or speedup).
type gate struct {
	Bench   string // benchmark family, e.g. "BenchmarkReplayBatched"
	Legacy  string // sub-benchmark of the reference path
	Current string // sub-benchmark of the shipped path
	Metric  string // which column to read: "ns/op" or "ns/req"

	// Tolerance, when non-zero, caps the allowed erosion for this family
	// below the -tolerance flag (the effective tolerance is the smaller
	// of the two). Families whose acceptance bar is tighter than the
	// global noise envelope set it.
	Tolerance float64
}

// gates lists the tracked legacy/current pairs.
var gates = []gate{
	{Bench: "BenchmarkReplayBatched", Legacy: "Indexed", Current: "Batched", Metric: "ns/req"},
	{Bench: "BenchmarkValidateParallel", Legacy: "Sequential", Current: "Parallel", Metric: "ns/op"},
	{Bench: "BenchmarkReplaySharded", Legacy: "Shards1", Current: "Shards4", Metric: "ns/req"},
	// Overhead gate, not a speedup gate: Static is the batched kernel and
	// Adaptive the epoch-chunked replay wrapping it, so the recorded
	// baseline ratio sits below 1.0 and the floor bounds how much the
	// adaptive machinery may cost on a trace that never needed to adapt.
	{Bench: "BenchmarkReplayAdaptive", Legacy: "Static", Current: "Adaptive", Metric: "ns/req"},
	// Overhead gate for the streaming trace path: Batched replays the
	// in-memory packed trace through the kernel, Streamed replays the
	// same trace from a .mtrc file (frame decode + CRC on top). The
	// baseline ratio sits just below 1.0, and the tighter 10% tolerance
	// holds streamed replay within the format's acceptance bar of the
	// in-memory path rather than the global ±25% envelope.
	{Bench: "BenchmarkReplayStreamed", Legacy: "Batched", Current: "Streamed", Metric: "ns/req", Tolerance: 0.10},
	// mnemo-tune's reason to exist: the naive sweep measures a fresh
	// Fast+Slow baseline for every candidate config, the memoized sweep
	// shares one content-addressed measurement across all 32. Each
	// iteration starts from a cold ArtifactCache, so the ratio is pure
	// within-sweep memoization.
	{Bench: "BenchmarkTuneSweep", Legacy: "Naive", Current: "Memoized", Metric: "ns/op"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stdout)
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline JSON `file`")
	tolerance := fs.Float64("tolerance", 0.25, "allowed relative speedup erosion in [0,1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tolerance < 0 || *tolerance >= 1 {
		return fmt.Errorf("-tolerance %v outside [0,1)", *tolerance)
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("no bench output files given (run go test -bench and pass the output)")
	}

	base, err := loadBaseline(*baseline)
	if err != nil {
		return err
	}
	samples := map[string][]float64{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = parseBench(f, samples)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}

	failed := 0
	for _, g := range gates {
		want, ok := base[g.Bench]
		if !ok {
			return fmt.Errorf("baseline %s has no speedup for %s", *baseline, g.Bench)
		}
		legacy, ok1 := samples[g.Bench+"/"+g.Legacy+" "+g.Metric]
		current, ok2 := samples[g.Bench+"/"+g.Current+" "+g.Metric]
		if !ok1 || !ok2 {
			return fmt.Errorf("%s: missing %s samples (legacy %v, current %v) — did the bench run?",
				g.Bench, g.Metric, ok1, ok2)
		}
		got := median(legacy) / median(current)
		tol := *tolerance
		if g.Tolerance > 0 && g.Tolerance < tol {
			tol = g.Tolerance
		}
		floor := want * (1 - tol)
		verdict := "ok"
		if got < floor {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%-24s %s/%s speedup %.2fx (baseline %.2fx, floor %.2fx, n=%d) %s\n",
			g.Bench, g.Legacy, g.Current, got, want, floor, len(current), verdict)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d speedup gates failed", failed, len(gates))
	}
	return nil
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkReplayBatched/Indexed-8  	  10000	  410.9 ns/op	  395.2 ns/req
//
// capturing the name and the metric columns that follow the iteration
// count as (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// cpuSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBench scans raw benchmark output, appending each metric sample to
// samples keyed "name metric" (name without the CPU suffix).
func parseBench(r io.Reader, samples map[string][]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("bad metric value %q on line %q", fields[i], sc.Text())
			}
			samples[name+" "+fields[i+1]] = append(samples[name+" "+fields[i+1]], v)
		}
	}
	return sc.Err()
}

// loadBaseline reads the recorded speedup ratio per benchmark family
// from BENCH_baseline.json (speedup_median, falling back to speedup).
func loadBaseline(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for name, fields := range doc.Benchmarks {
		for _, key := range []string{"speedup_median", "speedup"} {
			if raw, ok := fields[key]; ok {
				var v float64
				if err := json.Unmarshal(raw, &v); err != nil {
					return nil, fmt.Errorf("%s: %s.%s: %w", path, name, key, err)
				}
				out[name] = v
				break
			}
		}
	}
	return out, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
