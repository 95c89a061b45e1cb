package main

import (
	"fmt"
	"io"

	"mnemo"
	"mnemo/internal/experiments"
	"mnemo/internal/report"
	"mnemo/internal/shard"
)

// buildHTMLReport assembles the shareable consulting artifact: workload
// profile, measured baselines, the advised sizing, the estimate curve as
// an SVG chart, the cluster shard layout (when -shards ≥ 2), and — when
// -compare profiled several policies — the per-policy comparison
// overlay.
func buildHTMLReport(rep *mnemo.Report, w *mnemo.Workload, compared []*mnemo.Report, adaptive *mnemo.AdaptiveComparison, sink *mnemo.Sink, opts mnemo.Options) *report.HTMLReport {
	doc := &report.HTMLReport{
		Title: fmt.Sprintf("Mnemo sizing report — %s on %s", rep.Workload, rep.Engine),
	}

	// Workload profile.
	prof := mnemo.DescribeWorkload(w)
	doc.Sections = append(doc.Sections, report.HTMLSection{
		Heading: "Workload",
		Paragraphs: []string{
			fmt.Sprintf("%d keys, %d requests, %.0f%% reads, %s dataset.",
				prof.Keys, prof.Requests, prof.ReadFraction*100, report.FormatBytes(prof.TotalBytes)),
			fmt.Sprintf("Hot set: 90%% of requests hit %d keys (%s); access skew (Gini) %.3f.",
				prof.HotKeys90, report.FormatBytes(prof.HotBytes90), prof.Gini),
		},
	})

	// Baselines.
	bt := report.NewTable("", "placement", "throughput ops/s", "avg read µs", "avg write µs", "p99 µs")
	b := rep.Baselines
	bt.AddRow("all FastMem", fmt.Sprintf("%.0f", b.Fast.ThroughputOpsSec),
		fmt.Sprintf("%.1f", b.Fast.AvgReadNs/1000), fmt.Sprintf("%.1f", b.Fast.AvgWriteNs/1000),
		fmt.Sprintf("%.1f", b.Fast.P99Ns/1000))
	bt.AddRow("all SlowMem", fmt.Sprintf("%.0f", b.Slow.ThroughputOpsSec),
		fmt.Sprintf("%.1f", b.Slow.AvgReadNs/1000), fmt.Sprintf("%.1f", b.Slow.AvgWriteNs/1000),
		fmt.Sprintf("%.1f", b.Slow.P99Ns/1000))
	doc.Sections = append(doc.Sections, report.HTMLSection{
		Heading: "Measured baselines",
		Paragraphs: []string{fmt.Sprintf(
			"Running everything from SlowMem slows this workload down %.2fx.",
			b.SlowdownAllSlow())},
		Table: bt,
	})

	// Advice.
	if rep.Advice != nil {
		a := rep.Advice
		at := report.NewTable("", "quantity", "value")
		at.AddRow("permissible slowdown", fmt.Sprintf("%.0f%%", a.MaxSlowdown*100))
		at.AddRow("keys in FastMem", a.Point.KeysInFast)
		at.AddRow("FastMem capacity", report.FormatBytes(a.Point.FastBytes))
		at.AddRow("memory cost factor", fmt.Sprintf("%.3f of DRAM-only", a.Point.CostFactor))
		at.AddRow("cost savings", fmt.Sprintf("%.0f%%", a.CostSavings*100))
		at.AddRow("estimated throughput", fmt.Sprintf("%.0f ops/s", a.Point.EstThroughputOps))
		doc.Sections = append(doc.Sections, report.HTMLSection{
			Heading: "Advised sizing",
			Table:   at,
		})
	}

	// Curve chart.
	var xs, ys []float64
	step := len(rep.Curve.Points) / 200
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(rep.Curve.Points); i += step {
		p := rep.Curve.Points[i]
		xs = append(xs, p.CostFactor)
		ys = append(ys, p.EstThroughputOps)
	}
	last := rep.Curve.FastOnly()
	xs = append(xs, last.CostFactor)
	ys = append(ys, last.EstThroughputOps)
	doc.Sections = append(doc.Sections, report.HTMLSection{
		Heading: "Cost / performance estimate",
		Paragraphs: []string{
			"Each point sizes FastMem to hold one more key of the " +
				rep.Curve.Ordering + " ordering; pick any point that fits your budget.",
		},
		Chart: &report.Chart{
			XLabel: "memory cost factor R(p)",
			YLabel: "estimated throughput (ops/s)",
			Series: []report.Series{{Label: "estimate", X: xs, Y: ys}},
		},
	})

	// Cluster layout: with -shards ≥ 2, show how the ring distributes
	// the dataset — and the advised FastMem slice — across shards.
	if opts.Shards >= 2 {
		if rows, err := shardLayoutRows(rep, w, opts.Shards); err == nil {
			price := opts.PriceFactor
			if price <= 0 || price > 1 {
				price = mnemo.DefaultPriceFactor
			}
			doc.Sections = append(doc.Sections, report.ShardHTMLSection(rows, price))
		}
	}

	// Adaptive tiering: with -epoch-ops, show the static-vs-adaptive
	// measured runs of the advised placement and the per-epoch migration
	// traffic.
	if adaptive != nil {
		rows := []report.AdaptiveRow{
			{Policy: "static placement", RuntimeNs: float64(adaptive.Static.Runtime),
				ThroughputOps: adaptive.Static.ThroughputOpsSec},
			{Policy: opts.Policy, Adaptive: true, RuntimeNs: float64(adaptive.Adaptive.Runtime),
				ThroughputOps: adaptive.Adaptive.ThroughputOpsSec,
				Epochs:        adaptive.Adaptive.Epochs, Moves: adaptive.Adaptive.MovesApplied,
				MigratedBytes: adaptive.Adaptive.MigratedBytes, MigrationNs: adaptive.Adaptive.MigrationNs},
		}
		var series []report.AdaptiveEpochSeries
		if tr := adaptive.Adaptive.EpochTraffic; len(tr) > 0 {
			s := report.AdaptiveEpochSeries{Policy: opts.Policy}
			for _, e := range tr {
				s.Epoch = append(s.Epoch, float64(e.Epoch))
				s.Bytes = append(s.Bytes, float64(e.Bytes))
				s.CostNs = append(s.CostNs, e.CostNs)
			}
			series = append(series, s)
		}
		doc.Sections = append(doc.Sections, report.AdaptiveSection(rows, series))
	}

	// Observability: when the run was instrumented (-metrics), append the
	// metric snapshot and journal summary.
	if sec, ok := report.ObsHTMLSection(sink); ok {
		doc.Sections = append(doc.Sections, sec)
	}

	// Policy comparison overlay.
	if len(compared) > 1 {
		series := make([]report.PolicySeries, len(compared))
		for i, r := range compared {
			s := report.PolicySeries{Policy: r.Policy, AdvisedCost: -1}
			for _, p := range curveSamples(r.Curve) {
				s.X = append(s.X, p.CostFactor)
				s.Y = append(s.Y, p.EstThroughputOps)
			}
			if r.Advice != nil {
				s.AdvisedCost = r.Advice.Point.CostFactor
				s.AdvisedSavings = r.Advice.CostSavings
			}
			series[i] = s
		}
		doc.Sections = append(doc.Sections, report.PolicyComparisonSection(series))
	}
	return doc
}

// curveSamples thins a curve to ≤200 chart points, endpoint included.
func curveSamples(c *mnemo.Curve) []mnemo.CurvePoint {
	step := len(c.Points) / 200
	if step < 1 {
		step = 1
	}
	var out []mnemo.CurvePoint
	for i := 0; i < len(c.Points); i += step {
		out = append(out, c.Points[i])
	}
	return append(out, c.FastOnly())
}

// shardLayoutRows lays the report's advised placement (or, without
// advice, just the dataset) out over the same consistent-hash partition
// the sharded replay used.
func shardLayoutRows(rep *mnemo.Report, w *mnemo.Workload, shards int) ([]report.ShardRow, error) {
	part, err := shard.For(w, shards, 0, false)
	if err != nil {
		return nil, err
	}
	fast := rep.Ordering.Keys[:0]
	if rep.Advice != nil {
		fast = rep.Ordering.Keys[:rep.Advice.Point.KeysInFast]
	}
	return experiments.ShardLayout(part, w, fast), nil
}

// writeHTMLReport renders the document to w.
func writeHTMLReport(out io.Writer, rep *mnemo.Report, w *mnemo.Workload, compared []*mnemo.Report, adaptive *mnemo.AdaptiveComparison, sink *mnemo.Sink, opts mnemo.Options) error {
	return buildHTMLReport(rep, w, compared, adaptive, sink, opts).Render(out)
}
