package core

import (
	"context"
	"errors"
	"testing"

	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func errorsWorkload() *ycsb.Workload {
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "core-errors", Keys: 64, Requests: 1000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 19,
	})
}

func TestProfileCancelled(t *testing.T) {
	w := errorsWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Profile(ctx, DefaultConfig(server.RedisLike, 61), w, Touch, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProfileSurfacesLoadError: a FastMem tier too small for the
// dataset fails the FastMem baseline's first repetition, and the
// profile returns that error naming the baseline.
func TestProfileSurfacesLoadError(t *testing.T) {
	w := errorsWorkload()
	cfg := DefaultConfig(server.RedisLike, 63)
	cfg.Runs = 3
	cfg.Server.Machine.FastCapacity = 512 // too small for even one record
	_, err := Profile(context.Background(), cfg, w, Touch, 0)
	if !errors.Is(err, memsim.ErrNoCapacity) {
		t.Fatalf("err = %v, want memsim.ErrNoCapacity", err)
	}
	const want = "core: FastMem baseline: client: repetition 0 (seed 63): "
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("err = %q, want prefix %q", got, want)
	}
}

func TestConfigRejectsBadRunKnobs(t *testing.T) {
	w := errorsWorkload()
	bad := DefaultConfig(server.RedisLike, 64)
	bad.Runs = -1
	if _, err := Profile(context.Background(), bad, w, Touch, 0); err == nil {
		t.Error("negative runs accepted")
	}
	bad2 := DefaultConfig(server.RedisLike, 64)
	bad2.Server.EpochOps = -1
	if _, err := Profile(context.Background(), bad2, w, Touch, 0); err == nil {
		t.Error("negative epoch length accepted")
	}
	// PriceFactor 1 is now legal: R(1) = 1 everywhere, a valid (if
	// pointless) price ratio.
	ok := DefaultConfig(server.RedisLike, 64)
	ok.PriceFactor = 1
	if _, err := Profile(context.Background(), ok, w, Touch, 0); err != nil {
		t.Errorf("price factor 1 rejected: %v", err)
	}
}
