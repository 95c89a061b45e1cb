package report

import (
	"fmt"

	"mnemo/internal/costmodel"
)

// ShardRow is one shard's slice of a consistent-hash replay cluster
// (DESIGN.md §13): how many records and bytes the ring assigned to it,
// how much of the advised FastMem sizing lands on it, and how many
// trace requests it serves. Rows are built by the caller (the report
// package knows nothing about rings or placements) so the same table
// serves experiments, cmd/mnemo and tests.
type ShardRow struct {
	Shard     int
	Keys      int
	Bytes     int64
	FastKeys  int
	FastBytes int64
	Requests  int
}

// ShardTable renders per-shard cluster layout rows with a per-shard
// cost-factor column R(p) (the shard's own fast/total byte ratio under
// the SlowMem price factor p) and a totals row. An empty shard — the
// ring assigned it no records — shows "-" for its cost factor.
func ShardTable(title string, rows []ShardRow, price float64) *Table {
	t := NewTable(title, "shard", "keys", "bytes", "fast keys", "fast bytes", "requests", "cost R(p)")
	var total ShardRow
	for _, r := range rows {
		t.AddRow(r.Shard, r.Keys, FormatBytes(r.Bytes), r.FastKeys, FormatBytes(r.FastBytes),
			r.Requests, shardCost(r, price))
		total.Keys += r.Keys
		total.Bytes += r.Bytes
		total.FastKeys += r.FastKeys
		total.FastBytes += r.FastBytes
		total.Requests += r.Requests
	}
	t.AddRow("total", total.Keys, FormatBytes(total.Bytes), total.FastKeys,
		FormatBytes(total.FastBytes), total.Requests, shardCost(total, price))
	return t
}

func shardCost(r ShardRow, price float64) string {
	if r.Bytes <= 0 {
		return "-"
	}
	return trimFloat(costmodel.CostReduction(r.FastBytes, r.Bytes, price))
}

// ShardHTMLSection is the cluster-layout block of an HTML report: the
// per-shard table plus a summary paragraph calling out the provisioning
// answer (the largest per-shard FastMem requirement) and the request
// imbalance across shards.
func ShardHTMLSection(rows []ShardRow, price float64) HTMLSection {
	var maxFast int64
	minReq, maxReq := -1, 0
	for _, r := range rows {
		if r.FastBytes > maxFast {
			maxFast = r.FastBytes
		}
		if minReq < 0 || r.Requests < minReq {
			minReq = r.Requests
		}
		if r.Requests > maxReq {
			maxReq = r.Requests
		}
	}
	if minReq < 0 {
		minReq = 0
	}
	para := fmt.Sprintf(
		"The workload is partitioned across %d shard(s) by a consistent-hash ring. "+
			"Provisioning each shard with %s of FastMem satisfies the advised sizing on every shard; "+
			"per-shard request load spans %d–%d requests.",
		len(rows), FormatBytes(maxFast), minReq, maxReq)
	return HTMLSection{
		Heading:    "Cluster shard layout",
		Paragraphs: []string{para},
		Table:      ShardTable("", rows, price),
	}
}
