package experiments

import (
	"context"
	"fmt"
	"io"

	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/costmodel"
	"mnemo/internal/report"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/ycsb"
)

// clusterDefaultShards is the cluster size a sweep uses when the scale
// does not pin one.
const clusterDefaultShards = 4

// clusterHotKeys is the hot-set size whose shard spread the sweep
// reports: enough keys that a zipfian head should land on several
// shards, few enough that they really are the head.
const clusterHotKeys = 64

// ClusterSweepResult answers the cluster-provisioning question of
// DESIGN.md §13: when a workload is scaled out across N consistent-hash
// shards, how much FastMem does each shard need to stay within the
// slowdown SLO — and does the merged sharded measurement confirm it?
type ClusterSweepResult struct {
	Workload string
	Engine   string
	Shards   int
	SLO      float64

	// Advice is the curve advisor's cluster-wide sweet spot (cheapest
	// sizing within the SLO), measured over the sharded replay.
	Advice core.Advice
	// TotalBytes is the dataset size across all shards.
	TotalBytes int64
	// PerShard is the ring's layout of the advised sizing: each shard's
	// records, bytes, advised FastMem slice and request load.
	PerShard []report.ShardRow
	// FastBytesPerShard is the provisioning answer: the largest advised
	// per-shard FastMem footprint, i.e. what every shard must be built
	// with under uniform provisioning.
	FastBytesPerShard int64
	// HotShardSpread is how many distinct shards serve the trace's
	// hottest keys (top clusterHotKeys by access count) — the guard
	// against a skewed hot set collapsing onto one shard.
	HotShardSpread int

	// Measured is the merged sharded execution at the advised sizing;
	// MeasuredSlowdown is its runtime relative to the all-FastMem
	// baseline (the SLO is on this quantity's estimate).
	Measured         client.RunStats
	MeasuredSlowdown float64
}

// ClusterSweep profiles the trending workload (the paper's zipfian
// use case) on the Redis-like engine across a consistent-hash cluster
// (scale.Shards, defaulting to 4), asks the advisor for the cheapest
// sizing within the 10% SLO, lays the advised placement out over the
// ring, and verifies the advice with a measured sharded run at that
// sizing. Scale.Keys/Requests set the cluster size — the 10M-key /
// 100M-request recipe in README.md runs exactly this experiment.
func ClusterSweep(scale Scale, seed int64) (*ClusterSweepResult, error) {
	if scale.Shards == 0 {
		scale.Shards = clusterDefaultShards
	}
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	w, err := scale.workload(ycsb.Trending(seed))
	if err != nil {
		return nil, err
	}
	engine := server.RedisLike
	cfg := scale.coreConfig(engine, seed)
	ctx := context.Background()
	rep, err := core.Profile(ctx, cfg, w, core.Touch, SLO)
	if err != nil {
		return nil, err
	}
	res := &ClusterSweepResult{
		Workload:   w.Spec.Name,
		Engine:     engineLabel(engine),
		Shards:     scale.Shards,
		SLO:        SLO,
		Advice:     *rep.Advice,
		TotalBytes: rep.Ordering.TotalBytes(),
	}

	// Lay the advised placement out over the ring. The partition is the
	// cached one the sharded replay built, so this costs one map lookup.
	part, err := shard.For(w, scale.Shards, 0, false)
	if err != nil {
		return nil, err
	}
	nrec := len(w.Dataset.Records)
	fast := make([]bool, nrec)
	for _, k := range rep.Ordering.Keys[:rep.Advice.Point.KeysInFast] {
		fast[k.Index] = true
	}
	res.PerShard = make([]report.ShardRow, scale.Shards)
	for s := range res.PerShard {
		res.PerShard[s].Shard = s
		res.PerShard[s].Requests = part.Subs[s].Requests
	}
	for g, rec := range w.Dataset.Records {
		row := &res.PerShard[part.Assign[g]]
		row.Keys++
		row.Bytes += int64(rec.Size)
		if fast[g] {
			row.FastKeys++
			row.FastBytes += int64(rec.Size)
		}
	}
	for _, row := range res.PerShard {
		if row.FastBytes > res.FastBytesPerShard {
			res.FastBytesPerShard = row.FastBytes
		}
	}
	reads := make([]int, nrec)
	writes := make([]int, nrec)
	for _, k := range rep.Ordering.Keys {
		reads[k.Index] = k.Reads
		writes[k.Index] = k.Writes
	}
	res.HotShardSpread = part.HotShardSpread(reads, writes, clusterHotKeys)

	// Verify the advice: one measured sharded execution at the advised
	// sizing, merged across shards, compared against the FastMem
	// baseline the profile already measured.
	var pe core.PlacementEngine
	placement, err := pe.PlacementFor(rep.Ordering, rep.Advice.Point)
	if err != nil {
		return nil, err
	}
	measured, err := client.ExecuteMeanCtx(ctx, cfg.Server, w, placement, scale.Runs, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: cluster sweep measurement: %w", err)
	}
	res.Measured = measured
	if fastRt := rep.Baselines.Fast.Runtime; fastRt > 0 {
		res.MeasuredSlowdown = float64(measured.Runtime)/float64(fastRt) - 1
	}
	return res, nil
}

// Render implements the experiment output: a summary table answering
// "fast GB per shard", then the per-shard layout.
func (r *ClusterSweepResult) Render(w io.Writer) error {
	t := report.NewTable(
		fmt.Sprintf("Cluster sweep — %s on %s, %d shards (SLO %.0f%%)",
			r.Workload, r.Engine, r.Shards, r.SLO*100),
		"quantity", "value")
	t.AddRow("dataset", report.FormatBytes(r.TotalBytes))
	t.AddRow("advised FastMem (cluster)", report.FormatBytes(r.Advice.Point.FastBytes))
	t.AddRow("advised FastMem per shard (max)", report.FormatBytes(r.FastBytesPerShard))
	t.AddRow("advised keys in FastMem", r.Advice.Point.KeysInFast)
	t.AddRow("cost factor R(p)", r.Advice.Point.CostFactor)
	t.AddRow(fmt.Sprintf("hot-%d shard spread", clusterHotKeys),
		fmt.Sprintf("%d of %d shards", r.HotShardSpread, r.Shards))
	t.AddRow("measured slowdown at advice", fmt.Sprintf("%.2f%%", r.MeasuredSlowdown*100))
	t.AddRow("measured throughput", fmt.Sprintf("%.0f ops/s", r.Measured.ThroughputOpsSec))
	if err := t.Render(w); err != nil {
		return err
	}
	return report.ShardTable(
		fmt.Sprintf("Per-shard layout (%d virtual nodes per shard)", shard.DefaultVirtualNodes),
		r.PerShard, costmodel.DefaultPriceFactor).Render(w)
}
