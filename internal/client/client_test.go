package client

import (
	"math"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func testWorkload(readRatio float64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "clienttest", Keys: 1000, Requests: 5000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: readRatio, Sizes: ycsb.SizeFixed100KB, Seed: 3,
	})
}

func TestExecuteBasics(t *testing.T) {
	w := testWorkload(1.0)
	st, err := Execute(server.DefaultConfig(server.RedisLike, 1), w, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 5000 || st.Reads != 5000 || st.Writes != 0 {
		t.Fatalf("counts: %+v", st)
	}
	if st.Runtime <= 0 || st.ThroughputOpsSec <= 0 {
		t.Fatal("no time elapsed")
	}
	if st.AvgReadNs <= 0 || st.AvgWriteNs != 0 {
		t.Fatalf("avg latencies: read %v write %v", st.AvgReadNs, st.AvgWriteNs)
	}
	if st.P50Ns > st.P95Ns || st.P95Ns > st.P99Ns || st.P99Ns > st.MaxNs {
		t.Fatal("percentiles not ordered")
	}
	if st.Workload != "clienttest" || st.Engine != "redislike" {
		t.Fatal("labels wrong")
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestThroughputConsistentWithRuntime(t *testing.T) {
	w := testWorkload(0.5)
	st, err := Execute(server.DefaultConfig(server.MemcachedLike, 2), w, server.AllSlow())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(st.Requests) / st.Runtime.Seconds()
	if math.Abs(st.ThroughputOpsSec-want)/want > 1e-9 {
		t.Fatalf("throughput %.2f != requests/runtime %.2f", st.ThroughputOpsSec, want)
	}
	if st.Reads+st.Writes != st.Requests {
		t.Fatal("read+write counts don't sum")
	}
}

func TestFastBeatsSlow(t *testing.T) {
	w := testWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 5)
	fast, err := Execute(cfg, w, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Execute(cfg, w, server.AllSlow())
	if err != nil {
		t.Fatal(err)
	}
	if fast.ThroughputOpsSec <= slow.ThroughputOpsSec {
		t.Fatalf("fast %.0f ops/s not above slow %.0f ops/s",
			fast.ThroughputOpsSec, slow.ThroughputOpsSec)
	}
	if fast.AvgReadNs >= slow.AvgReadNs {
		t.Fatal("fast avg read latency not below slow")
	}
}

func TestHotspotLLCHitRateReflectsSkew(t *testing.T) {
	// 90% of ops hit 200 hot keys of ~100KB; the 12MB LLC holds ~120 of
	// them, so the hit rate must be clearly above the uniform level.
	w := testWorkload(1.0)
	st, err := Execute(server.DefaultConfig(server.RedisLike, 7), w, server.AllSlow())
	if err != nil {
		t.Fatal(err)
	}
	if st.LLCHitRate <= 0.1 {
		t.Fatalf("hotspot LLC hit rate %.3f suspiciously low", st.LLCHitRate)
	}
}

func TestExecuteCapacityError(t *testing.T) {
	w := testWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 1)
	cfg.Machine.FastCapacity = 1024
	if _, err := Execute(cfg, w, server.AllFast()); err == nil {
		t.Fatal("capacity overflow not reported")
	}
}

func TestExecuteMeanAveragesRuns(t *testing.T) {
	w := testWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 11)
	one, err := Execute(cfg, w, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	mean, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Means must be near a single run (noise is small and zero-mean).
	if math.Abs(mean.ThroughputOpsSec-one.ThroughputOpsSec)/one.ThroughputOpsSec > 0.05 {
		t.Fatalf("mean throughput %.0f far from single run %.0f",
			mean.ThroughputOpsSec, one.ThroughputOpsSec)
	}
	if mean.Requests != one.Requests {
		t.Fatal("request count changed under averaging")
	}
}

func TestExecuteMeanRejectsBadRuns(t *testing.T) {
	w := testWorkload(1.0)
	if _, err := ExecuteMeanWorkers(server.DefaultConfig(server.RedisLike, 1), w, server.AllFast(), 0, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestExecuteMeanPropagatesErrors(t *testing.T) {
	w := testWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 1)
	cfg.Machine.SlowCapacity = 1
	if _, err := ExecuteMeanWorkers(cfg, w, server.AllSlow(), 2, 0); err == nil {
		t.Fatal("load error swallowed")
	}
}

func TestTailsExceedAverages(t *testing.T) {
	// Fig 8d/8e: pauses and noise produce real tails.
	w := testWorkload(1.0)
	st, err := Execute(server.DefaultConfig(server.DynamoLike, 13), w, server.AllSlow())
	if err != nil {
		t.Fatal(err)
	}
	if st.P99Ns <= st.AvgNs {
		t.Fatalf("p99 %.0f not above mean %.0f", st.P99Ns, st.AvgNs)
	}
	if st.MaxNs < 2*st.AvgNs {
		t.Fatalf("max %.0f lacks pause spikes (mean %.0f)", st.MaxNs, st.AvgNs)
	}
}
