// Command bench is the repository's benchmark: absolute end-to-end and
// per-layer numbers for the advice pipeline (workload → baselines →
// ordering → curve → advice → report) on six workloads. README.md
// explains the metrics, the workloads and how to read the output;
// ../BENCHMARK.json is the contract a driver runs it by.
//
// One run (what the driver invokes, once per workload and pass):
//
//	bench -workload static_inmem -seed 1 -seconds 12 -trace 0
//
// A full set (every workload, untraced then traced, each in its own
// child process), and the comparison of two sets:
//
//	bench -seed 1 -out a.json
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload (default: a full set of all of them)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: the traced pass, per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "smoke-test scale (200 keys × 5000 requests)")
	fs.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "directory for spilled traces and span files")
	fs.StringVar(&cfg.spansOut, "spans", "", "span file of a traced run (default: under -tmp)")
	out := fs.String("out", "", "full set: write the result set to this file")
	compare := fs.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d must be 0 or 1\n", trace)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds %v must be positive\n", cfg.seconds)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "" {
		return runSet(cfg, *out, stdout, stderr)
	}
	res, info, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return printRun(stdout, stderr, info, res)
}

// infoPrefix marks the line a run prints before its result line.
const infoPrefix = "info: "

// printRun writes the info line and, last, the result line.
func printRun(stdout, stderr io.Writer, info runInfo, res result) int {
	infoLine, err := json.Marshal(info)
	if err == nil {
		var resLine []byte
		if resLine, err = json.Marshal(res); err == nil {
			fmt.Fprintf(stdout, "%s%s\n%s\n", infoPrefix, infoLine, resLine)
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 1
}

// canRecord refuses to put numbers on record from a host that cannot
// show parallelism — the mistake BENCH_baseline.json made.
func canRecord() error {
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: results from fewer than 2 processors are not recorded", procs)
	}
	return nil
}
