package mnemo

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mnemo/internal/obs"
)

// shardedChaosSpecs are the two fault plans of the sharded-chaos
// contract: crashes plus 4× latency outliers, and fail/crash/outlier at
// one in ten runs each.
var shardedChaosSpecs = []FaultSpec{
	{Seed: 9, CrashProb: 0.1, OutlierProb: 0.1, OutlierFactor: 4},
	{Seed: 3, FailProb: 0.1, CrashProb: 0.1, OutlierProb: 0.1},
}

// TestShardedChaosAdviceMatchesFaultFree is the end-to-end contract of
// one fault domain per run: under either chaos plan, a sharded profile
// remediated by the repetition layer alone (retries, a surviving-run
// floor, MAD outlier rejection) advises the same sizing as the
// fault-free profile at the same shard count, within one key. A
// cluster that rolled one fate per member instead would see its
// per-run fault rate grow with the shard count until the MAD gate or
// the run floor gives way.
func TestShardedChaosAdviceMatchesFaultFree(t *testing.T) {
	keys, requests := 10_000, 400_000
	if testing.Short() {
		keys, requests = 2000, 80_000
	}
	w, err := WorkloadByNameSized("trending", 1, keys, requests)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2, 4, 8} {
		opts := Options{Seed: 1, SLO: 0.10, Runs: 5, Shards: shards,
			Retries: 3, MinRuns: 3, OutlierMAD: 3.5}
		ref, err := Profile(w, opts)
		if err != nil {
			t.Fatalf("shards %d, fault-free: %v", shards, err)
		}
		want := ref.Advice.Point.KeysInFast
		for _, f := range shardedChaosSpecs {
			opts.Fault = f
			rep, err := Profile(w, opts)
			if err != nil {
				t.Fatalf("shards %d, fault %+v: %v", shards, f, err)
			}
			if got := rep.Advice.Point.KeysInFast; got < want-1 || got > want+1 {
				t.Errorf("shards %d, fault %+v: advised %d keys, fault-free advises %d",
					shards, f, got, want)
			}
		}
	}
}

// TestShardedFaultScheduleIndependentOfShards pins the one-fate rule at
// the telemetry surface: for a fixed plan, the same faults fire on the
// same run seeds — the journal's fault_fired events and the
// mnemo_server_faults_total{kind} counters — whether the runs replay on
// one deployment or across 1, 2, 4 or 8 shards. The stall window keeps
// every scheduled stall and crash inside member 0's slice, and the run
// timeout cuts off every stall but no outlier at any shard count, so
// each shard count retries the same runs. A one-shard cluster
// additionally reports bit-identically to the single deployment under
// faults.
func TestShardedFaultScheduleIndependentOfShards(t *testing.T) {
	w, err := WorkloadByNameSized("trending", 1, 400, 8000)
	if err != nil {
		t.Fatal(err)
	}
	type schedule struct {
		events []string
		counts map[string]int64
	}
	kinds := []string{"fail", "stall", "outlier", "crash"}
	profile := func(shards int) (*Report, schedule) {
		t.Helper()
		sink := NewSink()
		rep, err := Profile(w, Options{
			Seed: 1, SLO: 0.10, Runs: 6, Shards: shards, Obs: sink,
			Fault: FaultSpec{Seed: 1, FailProb: 0.15, StallProb: 0.15, OutlierProb: 0.15,
				CrashProb: 0.15, StallWindowOps: 50, Stall: 1000 * Second},
			RunTimeout: 100 * Second,
			Retries:    3, MinRuns: 1, OutlierMAD: 3.5,
		})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if d := sink.Journal().Dropped(); d != 0 {
			t.Fatalf("shards %d: journal dropped %d events", shards, d)
		}
		s := schedule{counts: map[string]int64{}}
		for _, e := range sink.Journal().Events() {
			if e.Kind == obs.EventFault {
				s.events = append(s.events, e.Detail)
			}
		}
		// Repetitions run concurrently, so the journal order is the
		// schedule's; the multiset of fired faults is the contract.
		slices.Sort(s.events)
		for _, k := range kinds {
			s.counts[k] = sink.Counter(obs.Name("mnemo_server_faults_total", "kind", k)).Value()
		}
		return rep, s
	}
	rep0, want := profile(0)
	for _, k := range kinds {
		if want.counts[k] == 0 {
			t.Fatalf("plan fires no %s fault; the schedule pins nothing: %v", k, want.counts)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		rep, got := profile(shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards %d: fault schedule differs from the single deployment's:\n got %v\nwant %v",
				shards, fmt.Sprint(got.counts, got.events), fmt.Sprint(want.counts, want.events))
		}
		if shards == 1 && !reflect.DeepEqual(rep, rep0) {
			t.Errorf("one-shard report under faults diverged from the single deployment:\n got %+v\nwant %+v", rep, rep0)
		}
	}
}
