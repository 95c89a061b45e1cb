package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mnemo"
)

// The full loop: search a small workload, write the spec and the HTML
// frontier report, and check the spec decodes and names the winner.
func TestRunWritesSpecAndHTML(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "tuned.json")
	htmlPath := filepath.Join(dir, "tune.html")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-keys", "150", "-requests", "2000",
		"-slo", "0.10", "-budget", "12", "-search-seed", "3",
		"-policies", "mnemot,knapsack,freqdecay",
		"-o", specPath, "-html", htmlPath,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "1 baseline measurement") {
		t.Errorf("memoization broke — stderr reports more than one measurement:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "winner ") {
		t.Errorf("winner line missing:\n%s", stderr.String())
	}
	if !regexp.MustCompile(`(?m)^[1-9][0-9]* knapsack candidate\(s\)$`).MatchString(stderr.String()) {
		t.Errorf("knapsack candidate line missing or zero:\n%s", stderr.String())
	}
	f, err := os.Open(specPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := mnemo.DecodeTuneSpec(f)
	if err != nil {
		t.Fatalf("written spec does not decode: %v", err)
	}
	if spec.Workload.Name != "trending" || spec.SLO != 0.10 {
		t.Errorf("spec carries wrong search: %+v", spec)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Tuned configuration frontier", "frontier", "policy defaults"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("html report missing %q", want)
		}
	}
}

// -o - streams the spec JSON to stdout.
func TestRunSpecOnStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workload", "trending", "-keys", "150", "-requests", "2000",
		"-budget", "8", "-policies", "mnemot,knapsack",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mnemo.DecodeTuneSpec(&stdout); err != nil {
		t.Fatalf("stdout spec does not decode: %v", err)
	}
}

// The catalog prints each tunable policy's parameter space.
func TestRunListPolicies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list-policies"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"knapsack", "anchor", "rungs", "default 3", "[0, 1]", "decay", "log"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q:\n%s", want, out)
		}
	}
}

// Search misconfiguration surfaces as an error, not a panic.
func TestRunRejections(t *testing.T) {
	cases := [][]string{
		{"-slo", "0"},
		{"-store", "bogus"},
		{"-workload", "bogus"},
		{"-policies", "bogus"},
		{"-budget", "-1"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(append(args, "-keys", "50", "-requests", "200"), &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
