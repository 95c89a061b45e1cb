package mnemo

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/trace"
)

// TestFaultFreeErrors is the catalogue of errors a fault-free Profile,
// MeasureAdaptive, Tune or core.ValidateWorkers can return: a rejected
// option, a tier capacity overflow in Load, a corrupt .mtrc frame and a
// cancelled context. Every one surfaces on the first call and repeats
// word for word on the second — a deterministic replay has no transient
// failure, so there is nothing a retry of the same call could change.
func TestFaultFreeErrors(t *testing.T) {
	w, err := WorkloadByNameSized("hot_drift", 42, 300, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	// The same trace on disk with its last frame's checksum flipped: every
	// frame before it decodes, so the error surfaces at the end of a pass.
	path := filepath.Join(t.TempDir(), "corrupt.mtrc")
	if err := WriteTrace(w, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()

	opts := Options{Store: DynamoLike, Seed: 42, SLO: 0.05}
	adaptive := opts
	adaptive.Policy, adaptive.EpochOps, adaptive.MigrationCostPerByte = "adaptive-freq", 4096, 0.5
	rep, err := Profile(w, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	topts := TuneOptions{Budget: 4, SearchSeed: 7, Workers: 1, Policies: []string{"touch", "mnemot"}}

	cfg := core.DefaultConfig(server.DynamoLike, 42)
	cramped := cfg
	cramped.Server.Machine.FastCapacity = 512 // too small for even one record
	validate := func(ctx context.Context, cfg core.Config, w *Workload, samples int) error {
		_, err := core.ValidateWorkers(ctx, cfg, w, rep.Curve, rep.Ordering, samples, 1)
		return err
	}

	for _, tc := range []struct {
		name string
		call func() error
		want func(error) bool
	}{
		{"Profile/rejected option", func() error { _, err := Profile(w, Options{Runs: -1}); return err },
			errContains("Runs")},
		{"Profile/corrupt frame", func() error { _, err := ProfileContext(bg, corrupt, opts); return err },
			errIs(trace.ErrChecksum)},
		{"Profile/cancelled", func() error { _, err := ProfileContext(cancelled, w, opts); return err },
			errIs(context.Canceled)},
		{"core.Profile/capacity overflow", func() error {
			_, err := core.Profile(bg, cramped, w, core.Touch, 0.05)
			return err
		}, errIs(memsim.ErrNoCapacity)},
		{"MeasureAdaptive/rejected option", func() error { _, err := MeasureAdaptive(bg, w, rep, opts); return err },
			errContains("requires EpochOps")},
		{"MeasureAdaptive/corrupt frame", func() error { _, err := MeasureAdaptive(bg, corrupt, rep, adaptive); return err },
			errIs(trace.ErrChecksum)},
		{"MeasureAdaptive/cancelled", func() error { _, err := MeasureAdaptive(cancelled, w, rep, adaptive); return err },
			errIs(context.Canceled)},
		{"Tune/rejected option", func() error { _, err := Tune(bg, w, opts, TuneOptions{Budget: -1}); return err },
			errContains("Budget")},
		{"Tune/corrupt frame", func() error { _, err := Tune(bg, corrupt, opts, topts); return err },
			errIs(trace.ErrChecksum)},
		{"Tune/cancelled", func() error { _, err := Tune(cancelled, w, opts, topts); return err },
			errIs(context.Canceled)},
		{"ValidateWorkers/rejected option", func() error { return validate(bg, cfg, w, 0) },
			errContains("samples 0")},
		{"ValidateWorkers/capacity overflow", func() error { return validate(bg, cramped, w, 3) },
			errIs(memsim.ErrNoCapacity)},
		{"ValidateWorkers/corrupt frame", func() error { return validate(bg, cfg, corrupt, 3) },
			errIs(trace.ErrChecksum)},
		{"ValidateWorkers/cancelled", func() error { return validate(cancelled, cfg, w, 3) },
			errIs(context.Canceled)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := tc.call()
			if first == nil || !tc.want(first) {
				t.Fatalf("first call: err = %v", first)
			}
			if second := tc.call(); second == nil || second.Error() != first.Error() {
				t.Fatalf("second call differs:\n  first:  %v\n  second: %v", first, second)
			}
		})
	}
}

func errIs(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func errContains(sub string) func(error) bool {
	return func(err error) bool { return strings.Contains(err.Error(), sub) }
}
