package client

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

func testWorkload(readRatio float64) *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "clienttest", Keys: 1000, Requests: 5000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: readRatio, Sizes: ycsb.SizeFixed100KB, Seed: 3,
	})
}

// TestReplayRefusals: the entry points kept for their signatures refuse
// what the replay no longer does — a simulated-time budget, and one
// request or one block served on a deployment of more than one lane,
// whose other lanes it would leave behind.
func TestReplayRefusals(t *testing.T) {
	w := testWorkload(1.0)
	pt := w.Packed()
	keys, kinds := pt.Keys[:64], pt.Kinds[:64]
	load := func(lanes int) *server.Deployment {
		d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 1))
		if lanes > 1 {
			d.AddLane(memsim.Slow, 1)
		}
		if err := d.Load(w.Dataset, server.AllFast()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"RunCtx budget", func() error {
			_, err := RunCtx(context.Background(), load(1), w, 3600*simclock.Second)
			return err
		}, "budget 1h0m0s"},
		{"Serve clock bound", func() error {
			tab := load(1).BatchTable()
			tab.Serve(keys, kinds, 3600*simclock.Second, tab.Block())
			return nil
		}, "panic: server: Serve with a simulated-time bound of 1h0m0s"},
		{"DoIndex two lanes", func() error {
			load(2).DoIndex(0, kvstore.Read)
			return nil
		}, "panic: server: DoIndex on a deployment of more than one lane"},
		{"Serve two lanes", func() error {
			tab := load(2).BatchTable()
			tab.Serve(keys, kinds, 0, tab.Block())
			return nil
		}, "panic: server: Serve on a deployment of more than one lane"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return tc.call()
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestExecuteBasics(t *testing.T) {
	w := testWorkload(1.0)
	st, err := measureRun(server.DefaultConfig(server.RedisLike, 1), w, server.AllFast())
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
	st, err := measureRun(server.DefaultConfig(server.MemcachedLike, 2), w, server.AllSlow())
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
	fast, err := measureRun(cfg, w, server.AllFast())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := measureRun(cfg, w, server.AllSlow())
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
	st, err := measureRun(server.DefaultConfig(server.RedisLike, 7), w, server.AllSlow())
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
	if _, err := measureRun(cfg, w, server.AllFast()); err == nil {
		t.Fatal("capacity overflow not reported")
	}
}

func TestExecuteMeanAveragesRuns(t *testing.T) {
	w := testWorkload(1.0)
	cfg := server.DefaultConfig(server.RedisLike, 11)
	one, err := measureRun(cfg, w, server.AllFast())
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
	st, err := measureRun(server.DefaultConfig(server.DynamoLike, 13), w, server.AllSlow())
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
