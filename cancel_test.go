package mnemo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// cancelSpec is large enough that a profile is still replaying when the
// cancel lands 5 ms in.
func cancelSpec(name string, seed int64) WorkloadSpec {
	return WorkloadSpec{
		Name: name, Keys: 2000, Requests: 100_000,
		Dist:      DistSpec{Kind: Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: SizeThumbnail, Seed: seed,
	}
}

// cancelSoon cancels the returned context 5 ms from now.
func cancelSoon() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	return ctx, cancel
}

// requireNoGoroutineLeak waits up to 2 s for the goroutine count to fall
// back to within 2 of warmup.
func requireNoGoroutineLeak(t *testing.T, warmup int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= warmup+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", warmup, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationMatrixPrompt cancels a sweep mid-flight: the call must
// return quickly in wall time (the testbed runs on simulated time),
// report the context error, leave every unfinished cell carrying it,
// and drain every worker goroutine.
func TestCancellationMatrixPrompt(t *testing.T) {
	warmup := runtime.NumGoroutine()
	specs := make([]WorkloadSpec, 6)
	for i := range specs {
		specs[i] = cancelSpec(fmt.Sprintf("cancel_%d", i), int64(i))
	}
	ctx, cancel := cancelSoon()
	defer cancel()
	start := time.Now()
	cells, err := ProfileMatrixContext(ctx, MatrixRequest{
		Specs:   specs,
		Options: Options{Seed: 1, Runs: 4},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	finished, cut := 0, 0
	for _, cell := range cells {
		switch {
		case cell.Report != nil && cell.Err == nil:
			finished++
		case cell.Err != nil && errors.Is(cell.Err, context.Canceled):
			cut++
		default:
			t.Fatalf("cell %s/%v: report %v err %v after cancellation",
				cell.Workload, cell.Engine, cell.Report, cell.Err)
		}
	}
	requireNoGoroutineLeak(t, warmup)
	if cut == 0 {
		t.Skip("sweep finished before cancellation; nothing to assert")
	}
	t.Logf("cancelled sweep: %d finished, %d cut", finished, cut)
}

// TestCancellationShardedPrompt cancels sharded profiles mid-flight: each
// call must return the context error quickly, and every per-shard and
// per-repetition goroutine must drain.
func TestCancellationShardedPrompt(t *testing.T) {
	warmup := runtime.NumGoroutine()
	cut := 0
	for i := 0; i < 4; i++ {
		w, err := GenerateWorkload(cancelSpec(fmt.Sprintf("cancel_sharded_%d", i), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := cancelSoon()
		start := time.Now()
		rep, err := ProfileContext(ctx, w, Options{Seed: int64(i) + 1, Runs: 4, Shards: 4})
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
	requireNoGoroutineLeak(t, warmup)
	if cut == 0 {
		t.Skip("profiles finished before cancellation; nothing to assert")
	}
	t.Logf("cancelled %d of 4 sharded profiles", cut)
}
