package mnemo

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mnemo/internal/core"
)

// TestSharedLLCNoProducerLeak: Profile, MeasureAdaptive and
// ValidateWorkers each share one LLC walk per trace among their runs,
// on producer goroutines of their own. However the call returns —
// success, a corrupt trace frame, a context cancelled before or during
// the call — every producer has exited by then.
func TestSharedLLCNoProducerLeak(t *testing.T) {
	w, err := GenerateWorkload(WorkloadSpec{
		Name: "shared_leak", Keys: 2000, Requests: 25 * 4096,
		Dist:      DistSpec{Kind: HotSetDrift, HotSetFraction: 0.1, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: SizeThumbnail, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.mtrc"), filepath.Join(dir, "bad.mtrc")
	if err := WriteTrace(w, good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := OpenTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := OpenTrace(bad)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Store: DynamoLike, Seed: 13, SLO: 0.05, Runs: 2,
		Policy: "adaptive-freq", EpochOps: 4096, MigrationCostPerByte: 0.5,
	}
	rep, err := Profile(gw, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := opts.coreConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func(context.Context, *Workload) error{
		"Profile": func(ctx context.Context, w *Workload) error {
			_, err := ProfileContext(ctx, w, opts)
			return err
		},
		"MeasureAdaptive": func(ctx context.Context, w *Workload) error {
			_, err := MeasureAdaptive(ctx, w, rep, opts)
			return err
		},
		"ValidateWorkers": func(ctx context.Context, w *Workload) error {
			_, err := core.ValidateWorkers(ctx, cfg, w, rep.Curve, rep.Ordering, 4, 0)
			return err
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range calls {
		for _, tc := range []struct {
			how  string
			ctx  func() (context.Context, context.CancelFunc)
			w    *Workload
			want func(error) bool
		}{
			{"ok", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, gw,
				func(err error) bool { return err == nil }},
			{"corrupt frame", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, bw,
				func(err error) bool { return err != nil && !errors.Is(err, context.Canceled) }},
			{"cancelled", func() (context.Context, context.CancelFunc) { return cancelled, func() {} }, gw,
				func(err error) bool { return errors.Is(err, context.Canceled) }},
			{"cancelled mid-run", cancelSoon, gw,
				func(err error) bool { return err == nil || errors.Is(err, context.Canceled) }},
		} {
			warmup := runtime.NumGoroutine()
			ctx, stop := tc.ctx()
			err := call(ctx, tc.w)
			stop()
			if !tc.want(err) {
				t.Fatalf("%s, %s: unexpected error %v", name, tc.how, err)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > warmup; {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %s: goroutine leak: %d before, %d after", name, tc.how, warmup, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}
