package mnemo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mnemo/internal/pool"
)

// chaosShardedOptions derives one seeded sharded fault schedule: the
// cluster size cycles through {2,4,8}, every fault class draws a
// probability, and the repetition layer's remediation knobs — retries,
// the surviving-run floor, MAD outlier rejection — are themselves
// randomized so the sweep covers their cross-product, strict mode
// included.
func chaosShardedOptions(i int, rng *rand.Rand) Options {
	opts := Options{
		Seed:   int64(i) + 1,
		Runs:   1 + rng.Intn(4),
		Shards: []int{2, 4, 8}[i%3],
		Fault: FaultSpec{
			Seed:           int64(i)*13 + 5,
			FailProb:       rng.Float64() * 0.3,
			StallProb:      rng.Float64() * 0.2,
			OutlierProb:    rng.Float64() * 0.3,
			CrashProb:      rng.Float64() * 0.4,
			StallWindowOps: 50, // inside member 0's slice of the tiny trace
		},
		Retries: rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		opts.RunTimeout = 2 * Second // cuts injected stalls
	}
	if rng.Intn(3) > 0 {
		opts.MinRuns = 1 + rng.Intn(opts.Runs)
		if rng.Intn(2) == 0 {
			// The MAD gate only promises to keep half the survivors; a
			// higher floor could fail a fault-free aggregate outright.
			opts.OutlierMAD = 3.5
			opts.MinRuns = min(opts.MinRuns, max(opts.Runs/2, 1))
		}
	}
	return opts
}

// TestChaosShardedSchedules drives sharded profiles through 200 seeded
// fault schedules mixing every fault class, remediated by the
// repetition layer alone. The contract: each schedule ends with a
// report or a typed error, a degraded report is one whose baselines
// folded fewer repetitions than requested (never fewer than MinRuns),
// the whole remediated execution is bit-identical when repeated under
// the same seed — with one worker as with many — and no goroutines
// leak. (The TestChaos name prefix keeps it inside the nightly
// `-run 'TestChaos'` -race sweep.)
func TestChaosShardedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded chaos sweep is a long test")
	}
	const schedules = 200

	warmup := runtime.NumGoroutine()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	parallel := max(procs, 4)

	degraded, failed := 0, 0
	for i := 0; i < schedules; i++ {
		rng := rand.New(rand.NewSource(int64(i)*104729 + 3))
		opts := chaosShardedOptions(i, rng)
		w, err := GenerateWorkload(chaosSpec(fmt.Sprintf("chaos_sharded_%d", i), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(parallel)
		rep, err := ProfileContext(context.Background(), w, opts)
		if (rep == nil) == (err == nil) {
			t.Fatalf("schedule %d: report %v, err %v — want exactly one", i, rep, err)
		}
		if err != nil {
			failed++
			var pe *pool.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("schedule %d: panic captured: %v\n%s", i, pe.Value, pe.Stack)
			}
			if !expectedChaosErr(err) {
				t.Fatalf("schedule %d: untyped error %v", i, err)
			}
		} else {
			for _, b := range []RunStats{rep.Baselines.Fast, rep.Baselines.Slow} {
				if b.RunsRequested != opts.Runs || b.RunsUsed > b.RunsRequested ||
					b.RunsUsed < max(opts.MinRuns, 1) || b.Degraded != (b.RunsUsed < b.RunsRequested) {
					t.Fatalf("schedule %d: inconsistent run counts: used %d of %d (MinRuns %d), degraded %t",
						i, b.RunsUsed, b.RunsRequested, opts.MinRuns, b.Degraded)
				}
			}
			if rep.Degraded != (rep.Baselines.Fast.Degraded || rep.Baselines.Slow.Degraded) {
				t.Fatalf("schedule %d: report Degraded=%t disagrees with its baselines", i, rep.Degraded)
			}
			if rep.Degraded {
				degraded++
			}
		}

		// Determinism: the full remediated pipeline — retries, outlier
		// rejection, degradation — must reproduce bit-exactly under the
		// same seed, on a single worker as on many.
		runtime.GOMAXPROCS(1)
		rep2, err2 := ProfileContext(context.Background(), w, opts)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("schedule %d: outcome flipped on rerun: %v vs %v", i, err, err2)
		}
		if err != nil {
			if err.Error() != err2.Error() {
				t.Fatalf("schedule %d: error not deterministic:\nfirst: %v\nagain: %v", i, err, err2)
			}
		} else if !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("schedule %d: report not deterministic:\nfirst: %+v\nagain: %+v", i, rep, rep2)
		}
	}
	// The sweep must actually exercise the degraded and failed paths —
	// a silent all-healthy run would pin nothing.
	if degraded == 0 {
		t.Error("no schedule produced a degraded report")
	}
	if failed == 0 {
		t.Error("no schedule exhausted its repetitions")
	}
	t.Logf("%d schedules: %d degraded, %d failed", schedules, degraded, failed)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= warmup+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after %d schedules",
				warmup, runtime.NumGoroutine(), schedules)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosShardedCancellationPrompt cancels a retrying, fault-injected
// sharded profile mid-flight: the call must return the context error
// quickly and every per-shard and per-repetition goroutine must drain,
// leaving no leaks behind.
func TestChaosShardedCancellationPrompt(t *testing.T) {
	warmup := runtime.NumGoroutine()
	cut := 0
	for i := 0; i < 4; i++ {
		w, err := GenerateWorkload(WorkloadSpec{
			Name: fmt.Sprintf("cancel_sharded_%d", i), Keys: 2000, Requests: 100_000,
			Dist:      DistSpec{Kind: Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
			ReadRatio: 0.9, Sizes: SizeThumbnail, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		rep, err := ProfileContext(ctx, w, Options{
			Seed: int64(i) + 1, Runs: 4, Shards: 4,
			Fault:   FaultSpec{Seed: int64(i)*7 + 3, OutlierProb: 0.5, CrashProb: 0.2, StallWindowOps: 5000},
			Retries: 2, MinRuns: 1, OutlierMAD: 3.5,
		})
		elapsed := time.Since(start)
		cancel()
		if elapsed > 5*time.Second {
			t.Fatalf("spec %d: cancellation took %v", i, elapsed)
		}
		switch {
		case err == nil && rep != nil:
			// Finished before the cancel landed; nothing to assert.
		case errors.Is(err, context.Canceled):
			cut++
		default:
			t.Fatalf("spec %d: got report %v, err %v after cancellation", i, rep, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= warmup+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled sharded profiles: %d before, %d after",
				warmup, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cut == 0 {
		t.Skip("profiles finished before cancellation; nothing to assert")
	}
	t.Logf("cancelled %d of 4 sharded profiles", cut)
}
