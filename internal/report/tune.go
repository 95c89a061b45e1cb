package report

import (
	"fmt"
	"io"

	"mnemo/internal/registry"
)

// PolicyCatalog renders the tiering-policy catalog the CLIs print for
// -list-policies: one line per registered policy, then one indented line
// per tunable parameter showing bounds, scale and default — the search
// space cmd/mnemo-tune explores and Options.PolicyParams accepts.
func PolicyCatalog(w io.Writer) error {
	for _, e := range registry.Entries() {
		if _, err := fmt.Fprintf(w, "%-14s %s\n", e.Name, e.Description); err != nil {
			return err
		}
		for _, p := range e.Params {
			scale := ""
			if p.Integer {
				scale += " int"
			}
			if p.Log {
				scale += " log"
			}
			bounds := fmt.Sprintf("[%s, %s]%s", registry.FormatParam(p.Min), registry.FormatParam(p.Max), scale)
			if _, err := fmt.Fprintf(w, "  %-12s %-16s default %-8s %s\n",
				p.Name, bounds, registry.FormatParam(p.Default), p.Description); err != nil {
				return err
			}
		}
	}
	return nil
}

// TuneRow is one evaluated candidate prepared for tuning-report
// rendering: the qualified policy-instance name plus its advised
// sizing under the search SLO.
type TuneRow struct {
	Policy      string
	CostFactor  float64
	Slowdown    float64
	FastBytes   int64
	KeysInFast  int
	Satisfiable bool
}

// TuneFrontierSection builds the tuning block of the HTML report: the
// cost/slowdown Pareto frontier as a chart (every non-dominated
// candidate, cheapest first), a frontier table with the winner marked,
// and the default-parameter baselines the tuned configuration is
// measured against. All candidates share one memoized baseline
// measurement, so differences are purely configuration quality.
func TuneFrontierSection(frontier, defaults []TuneRow, slo float64, measurements int64) HTMLSection {
	sec := HTMLSection{
		Heading: "Tuned configuration frontier",
		Paragraphs: []string{fmt.Sprintf(
			"Pareto frontier over %d evaluated candidates' advised sizings at the "+
				"%.0f%% slowdown SLO (%d shared baseline measurement%s): moving right "+
				"trades slowdown for memory cost. The winner is the cheapest "+
				"SLO-keeping point.",
			len(frontier), slo*100, measurements, plural(measurements)),
		},
	}
	if len(frontier) == 0 {
		sec.Paragraphs = append(sec.Paragraphs, "No candidates evaluated.")
		return sec
	}

	chart := &Chart{XLabel: "estimated slowdown vs FastMem-only", YLabel: "memory cost factor R(p)"}
	var fx, fy []float64
	for _, r := range frontier {
		fx = append(fx, r.Slowdown)
		fy = append(fy, r.CostFactor)
	}
	chart.Series = append(chart.Series, Series{Label: "frontier", X: fx, Y: fy})
	var dx, dy []float64
	for _, r := range defaults {
		dx = append(dx, r.Slowdown)
		dy = append(dy, r.CostFactor)
	}
	if len(dx) > 0 {
		chart.Series = append(chart.Series, Series{Label: "policy defaults", X: dx, Y: dy})
	}
	sec.Chart = chart

	table := NewTable("", "configuration", "cost factor", "slowdown", "FastMem", "keys in fast", "within SLO")
	for i, r := range frontier {
		name := r.Policy
		if i == 0 {
			name += "  ← winner"
		}
		table.AddRow(name, fmt.Sprintf("%.4f", r.CostFactor), fmt.Sprintf("%.4f", r.Slowdown),
			FormatBytes(r.FastBytes), r.KeysInFast, satisfiableMark(r.Satisfiable))
	}
	for _, r := range defaults {
		table.AddRow(r.Policy+"  (default)", fmt.Sprintf("%.4f", r.CostFactor),
			fmt.Sprintf("%.4f", r.Slowdown), FormatBytes(r.FastBytes), r.KeysInFast,
			satisfiableMark(r.Satisfiable))
	}
	sec.Table = table
	return sec
}

func satisfiableMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

func plural(n int64) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// TuneFrontierTable renders the frontier as the CLI's stderr table,
// winner first.
func TuneFrontierTable(frontier, defaults []TuneRow, measurements int64) *Table {
	t := NewTable(
		fmt.Sprintf("tuned frontier vs policy defaults (%d baseline measurement%s)",
			measurements, plural(measurements)),
		"configuration", "cost factor", "slowdown", "FastMem")
	for i, r := range frontier {
		name := r.Policy
		if i == 0 {
			name = "* " + name
		}
		t.AddRow(name, fmt.Sprintf("%.4f", r.CostFactor),
			fmt.Sprintf("%.4f", r.Slowdown), FormatBytes(r.FastBytes))
	}
	for _, r := range defaults {
		t.AddRow(r.Policy+" (default)", fmt.Sprintf("%.4f", r.CostFactor),
			fmt.Sprintf("%.4f", r.Slowdown), FormatBytes(r.FastBytes))
	}
	return t
}
