package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// passResult is one child run as the set records it.
type passResult struct {
	runInfo
	result
}

// resultSet is what a full set writes to -out and -compare reads.
type resultSet struct {
	Host    hostRecord `json:"host"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Tiny    bool       `json:"tiny,omitempty"`
	// Workloads maps a workload to its two passes.
	Workloads map[string]map[string]passResult `json:"workloads"`
}

const (
	passEndToEnd = "end_to_end"
	passPerLayer = "per_layer"
)

// runSet runs every workload untraced and then traced, each pass in its
// own child process, one at a time: the benchmark is a closed loop with
// one client, and a fresh process per workload keeps peak RSS and
// allocation counts from leaking between workloads.
func runSet(cfg runConfig, out string, stdout, stderr io.Writer) int {
	if out != "" && !cfg.tiny {
		if err := canRecord(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	set := resultSet{Host: readHost(), Seed: cfg.seed, Seconds: cfg.seconds, Tiny: cfg.tiny,
		Workloads: map[string]map[string]passResult{}}
	fmt.Fprintf(stdout, "host: %d cpus, GOMAXPROCS %d, %s, %s, calibration %.0f ns\n",
		set.Host.NProc, set.Host.GOMAXPROCS, set.Host.GoVersion, set.Host.CPUModel, set.Host.CalibNs)
	status := 0
	for _, def := range workloads {
		set.Workloads[def.Name] = map[string]passResult{}
		for trace, pass := range []string{passEndToEnd, passPerLayer} {
			args := []string{"-workload", def.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-tmp", cfg.tmpDir}
			if cfg.tiny {
				args = append(args, "-tiny")
			}
			pr, err := runChild(self, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (%s): %v\n", def.Name, pass, err)
				return 1
			}
			set.Workloads[def.Name][pass] = pr
			if !pr.Correct {
				status = 1
			}
		}
		printWorkload(stdout, def, set.Workloads[def.Name])
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// runChild executes one run in a child process and parses its info and
// result lines.
func runChild(self string, args []string, stderr io.Writer) (passResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	stdout, err := cmd.Output()
	if err != nil {
		return passResult{}, err
	}
	var pr passResult
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, line := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &pr.runInfo); err != nil {
				return passResult{}, fmt.Errorf("info line: %w", err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pr.result); err != nil {
		return passResult{}, fmt.Errorf("result line: %w", err)
	}
	return pr, nil
}

func printWorkload(w io.Writer, def workloadDef, passes map[string]passResult) {
	e2e, layer := passes[passEndToEnd], passes[passPerLayer]
	fmt.Fprintf(w, "\n== %s ==  sim_digest %s  ops %d+%d  failed_ops_pct = %.4g\n", def.Name, e2e.Digest,
		e2e.Attempted, layer.Attempted,
		float64(e2e.Failed+layer.Failed)/float64(max(1, e2e.Attempted+layer.Attempted))*100)
	for _, f := range append(e2e.Failures, layer.Failures...) {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, group := range []struct {
		specs []metricSpec
		pr    passResult
	}{{endToEnd, e2e}, {perLayer, layer}} {
		for _, m := range group.specs {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, group.pr.Metrics[m.Name].Value, m.Unit)
		}
	}
	tw.Flush()
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints every metric × workload of two result sets, a
// against b, with the metric's bound and a verdict: end-to-end metrics
// may worsen by at most their bound, exact metrics and the digests must
// be identical, and no operation may have failed. It returns non-zero
// when any verdict is "outside".
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readSet(pathB); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareSets(a, b *resultSet, w io.Writer) int {
	outside := 0
	verdict := func(ok bool) string {
		if ok {
			return "within"
		}
		outside++
		return "OUTSIDE"
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintf(w, "note: hosts differ (%s ×%d vs %s ×%d); wall-clock verdicts compare machines, not code\n",
			a.Host.CPUModel, a.Host.GOMAXPROCS, b.Host.CPUModel, b.Host.GOMAXPROCS)
	}
	sameInputs := a.Seed == b.Seed && a.Tiny == b.Tiny
	if !sameInputs {
		fmt.Fprintf(w, "note: seeds or scales differ; exact metrics and digests are not compared\n")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, def := range workloads {
		pa, pb := a.Workloads[def.Name], b.Workloads[def.Name]
		failed := 0
		for _, pass := range []string{passEndToEnd, passPerLayer} {
			failed += pa[pass].Failed + pb[pass].Failed
		}
		fmt.Fprintf(tw, "%s\tfailed_ops\t\t\t%d\t0\t%s\n", def.Name, failed, verdict(failed == 0))
		if sameInputs {
			da, db := pa[passEndToEnd].Digest, pb[passEndToEnd].Digest
			fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\texact\t%s\n", def.Name, da, db, verdict(da == db))
		}
		for _, group := range []struct {
			pass    string
			specs   []metricSpec
			bounded bool
		}{{passEndToEnd, endToEnd, true}, {passPerLayer, perLayer, false}} {
			for _, m := range group.specs {
				va, vb := pa[group.pass].Metrics[m.Name].Value, pb[group.pass].Metrics[m.Name].Value
				worse := 0.0
				if va != 0 {
					worse = (vb - va) / va
					if m.Better == "higher" {
						worse = -worse
					}
				}
				bound, v := "-", "-"
				switch {
				case m.exact && sameInputs:
					bound, v = "exact", verdict(va == vb)
				case group.bounded:
					bound, v = fmt.Sprintf("%.0f%%", m.Bound*100), verdict(worse <= m.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\n", def.Name, m.Name, va, vb, worse*100, bound, v)
			}
		}
	}
	tw.Flush()
	if outside > 0 {
		fmt.Fprintf(w, "%d verdicts outside their bounds\n", outside)
		return 1
	}
	fmt.Fprintln(w, "all verdicts within their bounds")
	return 0
}
