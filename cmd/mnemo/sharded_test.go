package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunShardsOneGolden is the CLI end of the Shards=1 equivalence
// contract: a one-shard cluster must reproduce the unsharded run's
// curve csv and HTML report byte for byte.
func TestRunShardsOneGolden(t *testing.T) {
	render := func(shards string) (csv string, html []byte) {
		out := filepath.Join(t.TempDir(), "report.html")
		args := []string{
			"-workload", "trending", "-store", "redislike",
			"-keys", "200", "-requests", "2000", "-slo", "0.10",
			"-html", out,
		}
		if shards != "" {
			args = append(args, "-shards", shards)
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(""), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		data, err := osReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String(), data
	}
	baseCSV, baseHTML := render("")
	oneCSV, oneHTML := render("1")
	if baseCSV != oneCSV {
		t.Error("-shards 1 curve csv differs from unsharded")
	}
	if !bytes.Equal(baseHTML, oneHTML) {
		t.Error("-shards 1 HTML report differs from unsharded")
	}
}

// TestRunShardsHTMLLayout: a 4-shard adaptive run adds the shard layout
// to the HTML report and a cluster note on stderr, and the cluster merge
// carries each shard's migration ledger (moves and bytes summed over
// shards, epochs of the longest shard), so its static-vs-adaptive line
// must not report zero epochs or moves.
func TestRunShardsHTMLLayout(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "hot_drift", "-keys", "300", "-requests", "40960", "-seed", "42", "-slo", "0.01",
		"-policy", "adaptive-freq", "-epoch-ops", "4096", "-migration-cost", "0.5",
		"-shards", "4", "-html", out, "-o", "",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := osReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{"Cluster shard layout", "cost R(p)", "shard"} {
		if !strings.Contains(html, want) {
			t.Errorf("html missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "cluster: 4 consistent-hash shards") {
		t.Errorf("stderr missing cluster note: %s", stderr.String())
	}
	m := regexp.MustCompile(`(?m)^adaptive \(adaptive-freq, epoch 4096 ops\): .*; (\d+) epochs, (\d+) moves`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("stderr missing the adaptive line:\n%s", stderr.String())
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("cluster merge dropped the migration ledger: %s epochs, %s moves", m[1], m[2])
	}
}
