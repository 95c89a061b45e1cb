package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// runShardedOnce builds a fresh cluster for cfg, loads it under p and
// executes one sharded run under the policy — the unit under test for
// the fault-domain scatter-gather.
func runShardedOnce(t *testing.T, cfg server.Config, w *ycsb.Workload, p server.Placement, pol Policy) (RunStats, error) {
	t.Helper()
	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	return runSharded(context.Background(), cfg, sd, pol)
}

// TestShardedFaultDomainsHealthyIdentical is the fault-domain
// equivalence anchor: on a healthy cluster (no injected faults), runs
// under retry/budget/hedge policies must be bit-identical to the legacy
// all-or-nothing path — attempt 0 executes every member exactly as
// built, and a high hedge threshold selects no stragglers.
func TestShardedFaultDomainsHealthyIdentical(t *testing.T) {
	w := shardedTestWorkload(t, 800, 8000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	legacy, err := runShardedOnce(t, cfg, w, p, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{
		{ShardRetries: 2, ShardFaultBudget: 1},
		{HedgeFactor: 10},
		{ShardRetries: 1, ShardFaultBudget: 2, HedgeFactor: 10},
	} {
		st, err := runShardedOnce(t, cfg, w, p, pol)
		if err != nil {
			t.Fatalf("policy %+v: %v", pol, err)
		}
		if st.ShardsFailed != 0 || st.ShardsRetried != 0 || st.Degraded {
			t.Fatalf("policy %+v: healthy cluster reported faults: %+v", pol, st)
		}
		// The anchor compares measurements; zero the telemetry-only
		// hedge counter (a hedge that selects no stragglers keeps every
		// primary, so the merged stats are otherwise identical).
		st.ShardsHedged = 0
		if !reflect.DeepEqual(legacy, st) {
			t.Fatalf("policy %+v diverged from legacy path:\nlegacy: %+v\ngot:    %+v", pol, legacy, st)
		}
	}
}

// TestShardedCrashFaultLegacyFails pins the pre-fault-domain contract:
// with the zero policy an injected mid-run crash on any shard fails the
// whole scatter-gather with a shard-attributed *server.FaultError.
func TestShardedCrashFaultLegacyFails(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	// Keep the crash window inside every shard's sub-trace (~1000 ops):
	// the default 4096-op window mostly schedules the crash past the end
	// of a shard's slice, where it never fires.
	cfg.Fault = server.FaultSpec{CrashProb: 1, StallWindowOps: 200, Seed: 11}
	_, err := runShardedOnce(t, cfg, w, p, Policy{})
	var fe *server.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a *server.FaultError", err)
	}
	if fe.Kind != server.FaultCrash {
		t.Fatalf("fault kind %v, want crash", fe.Kind)
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Fatalf("crash error does not name the shard: %v", err)
	}
}

// TestShardedCrashRetryRecovers finds a seeded schedule where crash
// faults hit some shards and per-shard retries recover every one of
// them: the run succeeds with a full (non-degraded) merge, the retry
// count is surfaced, and the whole remediated execution is
// deterministic across rebuilds.
func TestShardedCrashRetryRecovers(t *testing.T) {
	w := shardedTestWorkload(t, 600, 6000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	pol := Policy{ShardRetries: 3}
	for fs := int64(1); fs <= 200; fs++ {
		cfg.Fault = server.FaultSpec{CrashProb: 0.5, StallWindowOps: 200, Seed: fs}
		st, err := runShardedOnce(t, cfg, w, p, pol)
		if err != nil || st.ShardsRetried == 0 {
			continue
		}
		if st.ShardsFailed != 0 || st.Degraded || len(st.DegradedReasons) != 0 {
			t.Fatalf("fault seed %d: recovered run flagged degraded: %+v", fs, st)
		}
		if st.Requests != w.RequestCount() {
			t.Fatalf("fault seed %d: recovered run served %d of %d requests",
				fs, st.Requests, w.RequestCount())
		}
		again, err := runShardedOnce(t, cfg, w, p, pol)
		if err != nil {
			t.Fatalf("fault seed %d: rerun failed: %v", fs, err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("fault seed %d: remediated run not deterministic:\nfirst: %+v\nagain: %+v",
				fs, st, again)
		}
		return
	}
	t.Fatal("no fault seed in [1,200] produced a retry-recovered run")
}

// TestShardedPartialMergeBudget finds a schedule where some shards die
// within the fault budget and checks the partial-merge invariants: the
// result is Degraded with one shard-attributed reason per dead shard,
// the merged request count is exactly the surviving shards' share, and
// throughput is re-derived from the partial makespan.
func TestShardedPartialMergeBudget(t *testing.T) {
	w := shardedTestWorkload(t, 600, 6000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	pol := Policy{ShardFaultBudget: 3}
	for fs := int64(1); fs <= 200; fs++ {
		cfg.Fault = server.FaultSpec{CrashProb: 0.7, StallWindowOps: 200, Seed: fs}
		st, err := runShardedOnce(t, cfg, w, p, pol)
		if err != nil || st.ShardsFailed == 0 {
			continue
		}
		if !st.Degraded {
			t.Fatalf("fault seed %d: partial merge not flagged Degraded", fs)
		}
		if len(st.DegradedReasons) != st.ShardsFailed {
			t.Fatalf("fault seed %d: %d reasons for %d dead shards: %v",
				fs, len(st.DegradedReasons), st.ShardsFailed, st.DegradedReasons)
		}
		sd, err := server.NewShardedDeployment(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		deadReq := 0
		for _, reason := range st.DegradedReasons {
			var s int
			if n, err := fmt.Sscanf(reason, "shard %d:", &s); err != nil || n != 1 {
				t.Fatalf("fault seed %d: reason not shard-attributed: %q", fs, reason)
			}
			deadReq += sd.Sub(s).RequestCount()
		}
		if want := w.RequestCount() - deadReq; st.Requests != want {
			t.Fatalf("fault seed %d: partial merge served %d requests, want %d (total %d − dead %d)",
				fs, st.Requests, want, w.RequestCount(), deadReq)
		}
		if wantTput := float64(st.Requests) / st.Runtime.Seconds(); st.ThroughputOpsSec != wantTput {
			t.Fatalf("fault seed %d: partial throughput %v, want %v", fs, st.ThroughputOpsSec, wantTput)
		}
		return
	}
	t.Fatal("no fault seed in [1,200] produced a within-budget partial merge")
}

// TestShardedFaultBudgetExceeded: when more shards die than the budget
// allows, the run fails with an error naming the budget and wrapping
// the underlying injected fault.
func TestShardedFaultBudgetExceeded(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	cfg.Fault = server.FaultSpec{FailProb: 1, Seed: 9}
	_, err := runShardedOnce(t, cfg, w, p, Policy{ShardRetries: 1, ShardFaultBudget: 1})
	var fe *server.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a wrapped *server.FaultError", err)
	}
	if !strings.Contains(err.Error(), "fault budget") {
		t.Fatalf("error does not name the fault budget: %v", err)
	}
}

// TestShardedAllShardsDeadError: a budget generous enough to cover every
// shard still cannot merge nothing — at least one shard must survive.
func TestShardedAllShardsDeadError(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	cfg.Fault = server.FaultSpec{FailProb: 1, Seed: 9}
	_, err := runShardedOnce(t, cfg, w, p, Policy{ShardFaultBudget: 4})
	if err == nil || !strings.Contains(err.Error(), "all 4 shards failed") {
		t.Fatalf("got %v, want an all-shards-failed error", err)
	}
}

// TestShardedHedgeStragglers finds a schedule where straggler faults
// inflate some shards and hedged re-execution fires: the hedge count is
// surfaced, the hedged makespan never exceeds the unhedged one (losers
// keep the primary), at least one schedule strictly improves, and the
// hedged run is deterministic across rebuilds.
func TestShardedHedgeStragglers(t *testing.T) {
	w := shardedTestWorkload(t, 600, 6000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	pol := Policy{HedgeFactor: 1.5}
	hedged, improved := false, false
	for fs := int64(1); fs <= 120 && !(hedged && improved); fs++ {
		cfg.Fault = server.FaultSpec{StragglerProb: 0.5, Seed: fs}
		plain, err := runShardedOnce(t, cfg, w, p, Policy{})
		if err != nil {
			t.Fatalf("fault seed %d: unhedged run failed: %v", fs, err)
		}
		st, err := runShardedOnce(t, cfg, w, p, pol)
		if err != nil {
			t.Fatalf("fault seed %d: hedged run failed: %v", fs, err)
		}
		if st.Requests != plain.Requests {
			t.Fatalf("fault seed %d: hedging changed request count %d → %d",
				fs, plain.Requests, st.Requests)
		}
		if st.Runtime > plain.Runtime {
			t.Fatalf("fault seed %d: hedging worsened makespan %v → %v",
				fs, plain.Runtime, st.Runtime)
		}
		if st.ShardsHedged == 0 {
			continue
		}
		if !hedged {
			hedged = true
			again, err := runShardedOnce(t, cfg, w, p, pol)
			if err != nil {
				t.Fatalf("fault seed %d: hedged rerun failed: %v", fs, err)
			}
			if !reflect.DeepEqual(st, again) {
				t.Fatalf("fault seed %d: hedged run not deterministic:\nfirst: %+v\nagain: %+v",
					fs, st, again)
			}
		}
		if st.Runtime < plain.Runtime {
			improved = true
		}
	}
	if !hedged {
		t.Fatal("no fault seed in [1,120] triggered a hedge")
	}
	if !improved {
		t.Fatal("no fault seed in [1,120] saw a hedge improve the makespan")
	}
}

// TestShardedCancellationNotRemediated: a cancelled context surfaces as
// the context error, never dressed up as a shard fault, retried or
// charged to the fault budget.
func TestShardedCancellationNotRemediated(t *testing.T) {
	w := shardedTestWorkload(t, 500, 4000)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 4
	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = runSharded(ctx, cfg, sd, Policy{ShardRetries: 2, ShardFaultBudget: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if strings.Contains(err.Error(), "fault budget") {
		t.Fatalf("cancellation charged to the fault budget: %v", err)
	}
}

// deleteTraceWorkload generates a read-heavy trace and rewrites a few
// ops into Deletes: their frames are served per-op, which mutates engine
// state, so member deployments cannot be rewound by the snapshot reset
// and ResetShard must rebuild them fresh.
func deleteTraceWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "sharded-delete", Keys: 400, Requests: 3000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
		ReadRatio: 0.95,
		Sizes:     ycsb.SizeThumbnail,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < len(w.Ops); i += 97 {
		w.Ops[i].Kind = kvstore.Delete
	}
	if w.Packed().Batchable() {
		t.Fatal("delete trace still batchable")
	}
	return w
}

// TestShardedResetShardRebuildFresh covers ResetShard's rebuild-fresh
// fallback: a member that served Delete-bearing frames per-op cannot
// take the snapshot reset, so ResetShard must replace the consumed member
// with a freshly populated one — and a rewound-then-rerun cluster must
// measure byte-identically to a cluster built fresh at the same seed,
// injected fault state included.
func TestShardedResetShardRebuildFresh(t *testing.T) {
	w := deleteTraceWorkload(t)
	p := halfFastPlacement(w)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	cfg.Shards = 3
	cfg.Fault = server.FaultSpec{OutlierProb: 1, Seed: 7}

	sd, err := server.NewShardedDeployment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := runSharded(context.Background(), cfg, sd, Policy{}); err != nil {
		t.Fatal(err)
	}
	if sd.Reusable() {
		t.Fatal("a cluster that served Delete frames per-op should not be snapshot-reusable")
	}

	const seedB = 4242
	rebuilt := 0
	for s := 0; s < sd.Shards(); s++ {
		before := sd.Dep(s)
		if !sd.ResetShard(s, sd.MemberSeed(seedB, s)) {
			t.Fatalf("ResetShard(%d) failed", s)
		}
		// A sub-trace that got no Deletes is still batchable and may
		// legitimately rewind in place; a Delete-bearing one must have
		// been rebuilt.
		if !sd.Sub(s).Packed().Batchable() {
			if sd.Dep(s) == before {
				t.Fatalf("shard %d: expected a rebuilt member, got the snapshot-reset one", s)
			}
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("no shard exercised the rebuild-fresh fallback")
	}
	cfgB := cfg
	cfgB.Seed = seedB
	reset, err := runSharded(context.Background(), cfgB, sd, Policy{})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := runShardedOnce(t, cfgB, w, p, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reset, fresh) {
		t.Fatalf("rebuilt-member run diverged from fresh cluster:\nreset: %+v\nfresh: %+v", reset, fresh)
	}
}
