package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnemo"
)

func TestRunPolicyFlag(t *testing.T) {
	for _, policy := range []string{"mnemot", "tahoe", "freqdecay", "pagesample", "knapsack", "standalone"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{
			"-workload", "trending", "-policy", policy,
			"-keys", "200", "-requests", "2000", "-o", "",
		}, strings.NewReader(""), &stdout, &stderr)
		if err != nil {
			t.Fatalf("-policy %s: %v", policy, err)
		}
	}
}

func TestRunListPolicies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list-policies"}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"touch", "mnemot", "tahoe", "freqdecay", "pagesample", "knapsack"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("catalog missing %q:\n%s", want, stdout.String())
		}
	}
	// Tunable policies list their parameter spaces: name, bounds, scale
	// and default — the surface cmd/mnemo-tune searches.
	for _, want := range []string{"anchor", "rungs", "decay", "rate", "default 3", "[0, 1]", "log"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("catalog missing parameter detail %q:\n%s", want, stdout.String())
		}
	}
}

// -config replays a tuned spec bit-identically; a tampered expectation
// is rejected.
func TestRunConfigReplay(t *testing.T) {
	recipe := mnemo.TuneWorkloadRecipe{Name: "trending", Seed: 5, Keys: 150, Requests: 2000}
	_, spec, err := mnemo.TuneWithSpec(context.Background(), recipe,
		mnemo.Options{SLO: 0.10, Seed: 42},
		mnemo.TuneOptions{Budget: 8, SearchSeed: 3, Policies: []string{"mnemot", "knapsack"}})
	if err != nil {
		t.Fatalf("TuneWithSpec: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tuned.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-config", path, "-o", "-"}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("-config replay: %v", err)
	}
	if !strings.Contains(stderr.String(), "bit-identically") {
		t.Errorf("replay confirmation missing:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "cost_factor") {
		t.Errorf("replayed curve csv missing on stdout:\n%.200s", stdout.String())
	}

	// Tamper with the expected outcome: the replay must fail loudly.
	spec.Expected.FastBytes++
	tampered := filepath.Join(dir, "tampered.json")
	tf, err := os.Create(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Encode(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	stdout.Reset()
	stderr.Reset()
	err = run([]string{"-config", tampered, "-o", ""}, strings.NewReader(""), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered spec not rejected: %v", err)
	}
}

func TestRunCompare(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-keys", "200", "-requests", "2000",
		"-compare", "mnemot, tahoe,freqdecay", "-html", out, "-o", "",
	}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "policy comparison (1 baseline measurement)") {
		t.Errorf("comparison table missing or re-measured:\n%s", stderr.String())
	}
	for _, want := range []string{"touch", "mnemot", "tahoe", "freqdecay"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("comparison missing policy %q", want)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Policy comparison") {
		t.Error("html report missing comparison section")
	}
}

func TestResolvePolicyName(t *testing.T) {
	for policy, want := range map[string]string{"": "touch", "mnemot": "mnemot"} {
		if got := resolvePolicyName(policy); got != want {
			t.Errorf("resolvePolicyName(%q) = %q, want %q", policy, got, want)
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-policy", "bogus",
		"-keys", "10", "-requests", "10",
	}, strings.NewReader(""), &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("error %q does not name the problem", err)
	}
}
