package core

import (
	"context"
	"reflect"
	"testing"

	"mnemo/internal/client"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// TestBaselinesConcurrentMatchesSerial pins the determinism contract of
// the concurrent Sensitivity Engine: running the AllFast and AllSlow
// executions in parallel must produce exactly the Baselines a serial
// back-to-back execution with the same seeds produces.
func TestBaselinesConcurrentMatchesSerial(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "baseline", Keys: 500, Requests: 3000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed10KB, Seed: 8,
	})
	cfg := DefaultConfig(server.RedisLike, 31)
	cfg.Runs = 2
	got, err := MeasureBaselines(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}

	// The serial reference: same seeds (slow decorrelated by +7919), one
	// worker, executed one after the other.
	n, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := client.ExecuteMeanWorkers(n.Server, w, server.AllFast(), n.Runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := n.Server
	slowCfg.Seed += 7919
	slow, err := client.ExecuteMeanWorkers(slowCfg, w, server.AllSlow(), n.Runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Baselines{Fast: fast, Slow: slow}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent baselines diverged from serial:\ngot:  %+v\nwant: %+v", got, want)
	}
}
