// Command mnemo-tune searches the tiering policy/parameter space for
// the cheapest FastMem sizing that keeps a workload within a slowdown
// SLO, and writes the winning configuration as a reproducible tuned
// spec that `mnemo -config` replays bit-identically.
//
// All candidate evaluations share one content-addressed baseline
// measurement (DESIGN.md §17), so a 64-candidate search costs little
// more than profiling the workload once. The search is deterministic
// under -search-seed for any -workers value.
//
// Usage:
//
//	mnemo-tune [flags]
//
//	-workload name    Table III workload (trending, news_feed, timeline,
//	                  edit_thumbnail, trending_preview) or a ycsb preset
//	-keys n           key-space override (0 = workload default)
//	-requests n       trace-length override (0 = workload default)
//	-store name       redislike | memcachedlike | dynamolike
//	-seed n           measurement seed (also the workload generation seed)
//	-slo pct          permissible slowdown, e.g. 0.10 (required > 0)
//	-p factor         SlowMem:FastMem per-byte price ratio (default 0.2)
//	-runs n           repetitions per baseline measurement
//	-budget n         candidate-evaluation budget (default 64)
//	-search-seed n    seed of the random exploration phase
//	-workers n        parallel candidate evaluations (0 = GOMAXPROCS)
//	-policies a,b,..  restrict the search to these policies
//	-o file           write the tuned spec JSON here (default stdout,
//	                  "" = skip)
//	-html file        also write an HTML report with the Pareto frontier
//	-list-policies    print the catalog with each policy's parameter
//	                  space and exit
//
// Example:
//
//	mnemo-tune -workload news_feed -slo 0.07 -o tuned.json
//	mnemo -config tuned.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mnemo"
	"mnemo/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mnemo-tune:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mnemo-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "trending", "Table III workload name")
		keys       = fs.Int("keys", 0, "key-space size override")
		requests   = fs.Int("requests", 0, "request-count override")
		store      = fs.String("store", "redislike", "store engine: redislike|memcachedlike|dynamolike")
		seed       = fs.Int64("seed", 42, "measurement and workload generation seed")
		slo        = fs.Float64("slo", 0.10, "permissible slowdown the tuned sizing must keep")
		price      = fs.Float64("p", mnemo.DefaultPriceFactor, "SlowMem:FastMem per-byte price ratio")
		runs       = fs.Int("runs", 1, "repetitions per baseline measurement")
		budget     = fs.Int("budget", 0, "candidate-evaluation budget (0 = 64)")
		searchSeed = fs.Int64("search-seed", 1, "seed of the random exploration phase")
		workers    = fs.Int("workers", 0, "parallel candidate evaluations (0 = GOMAXPROCS)")
		policies   = fs.String("policies", "", "comma-separated policies to search (default: all)")
		outPath    = fs.String("o", "-", "tuned spec JSON destination ('-' = stdout, '' = skip)")
		htmlOut    = fs.String("html", "", "also write an HTML frontier report to this file")
		listPol    = fs.Bool("list-policies", false, "print the policy catalog with parameter spaces and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listPol {
		return report.PolicyCatalog(stdout)
	}
	engine, ok := mnemo.EngineByName(*store)
	if !ok {
		return fmt.Errorf("unknown store %q", *store)
	}
	var searched []string
	if *policies != "" {
		for _, n := range strings.Split(*policies, ",") {
			if n = strings.TrimSpace(n); n != "" {
				searched = append(searched, n)
			}
		}
	}

	recipe := mnemo.TuneWorkloadRecipe{Name: *workload, Seed: *seed, Keys: *keys, Requests: *requests}
	opts := mnemo.Options{Store: engine, Seed: *seed, Runs: *runs, PriceFactor: *price, SLO: *slo}
	topts := mnemo.TuneOptions{Budget: *budget, SearchSeed: *searchSeed, Workers: *workers, Policies: searched}
	res, spec, err := mnemo.TuneWithSpec(context.Background(), recipe, opts, topts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "tuned %s on %s: %d candidates, %d baseline measurement(s)\n",
		*workload, *store, len(res.Evals), res.Stats.Measurements)
	knapsacks := 0
	for _, e := range res.Evals {
		if e.Candidate.Policy == "knapsack" {
			knapsacks++
		}
	}
	fmt.Fprintf(stderr, "%d knapsack candidate(s)\n", knapsacks)
	fmt.Fprintf(stderr, "winner %s: cost %.4f (slowdown %.4f, %s FastMem)\n",
		res.Winner.PolicyName, res.Winner.CostFactor, res.Winner.Slowdown,
		report.FormatBytes(res.Winner.FastBytes))
	if gain := res.Gain(); gain > 0 {
		fmt.Fprintf(stderr, "beats best default %s by %.4f cost (%.2f%% of FastMem-only)\n",
			res.Defaults[0].PolicyName, gain, gain*100)
	} else {
		fmt.Fprintf(stderr, "no improvement over default %s (defaults are on the frontier)\n",
			res.Defaults[0].PolicyName)
	}
	if err := report.TuneFrontierTable(tuneRows(res.Frontier), tuneRows(res.Defaults), res.Stats.Measurements).Render(stderr); err != nil {
		return err
	}

	if *htmlOut != "" {
		if err := writeHTML(*htmlOut, res, recipe, *store); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "html report written to %s\n", *htmlOut)
	}

	switch *outPath {
	case "":
		return nil
	case "-":
		return spec.Encode(stdout)
	default:
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := spec.Encode(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "tuned spec written to %s (replay with: mnemo -config %s)\n", *outPath, *outPath)
		return nil
	}
}

// writeHTML renders the frontier report.
func writeHTML(path string, res *mnemo.TuneResult, recipe mnemo.TuneWorkloadRecipe, store string) error {
	doc := &report.HTMLReport{
		Title: fmt.Sprintf("Mnemo tuning report — %s on %s", recipe.Name, store),
		Sections: []report.HTMLSection{
			{
				Heading: "Search",
				Paragraphs: []string{fmt.Sprintf(
					"%d candidate configurations evaluated against %d shared baseline "+
						"measurement(s); the search is deterministic under its seed.",
					len(res.Evals), res.Stats.Measurements)},
			},
			report.TuneFrontierSection(tuneRows(res.Frontier), tuneRows(res.Defaults),
				res.SLO, res.Stats.Measurements),
		},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := doc.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tuneRows adapts evaluations for report rendering.
func tuneRows(evals []mnemo.TuneEval) []report.TuneRow {
	rows := make([]report.TuneRow, len(evals))
	for i, e := range evals {
		rows[i] = report.TuneRow{
			Policy:      e.PolicyName,
			CostFactor:  e.CostFactor,
			Slowdown:    e.Slowdown,
			FastBytes:   e.FastBytes,
			KeysInFast:  e.KeysInFast,
			Satisfiable: e.Satisfiable,
		}
	}
	return rows
}
