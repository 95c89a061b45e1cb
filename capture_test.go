package mnemo

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/obs"
)

// monitorCapture generates a Redis MONITOR capture of GETs, SETs and
// DELs over keys key:0 … key:keys-1 with the Park–Miller generator, the
// way CI's "Shared LLC stream determinism" step does with awk: 80% GET,
// 16% SET of 64 B–544 B, 4% DEL.
func monitorCapture(lines, keys int) string {
	var b strings.Builder
	x := 42
	next := func(n int) int {
		x = x * 16807 % 2147483647
		return x % n
	}
	for i := 0; i < lines; i++ {
		k, r := next(keys), next(100)
		fmt.Fprintf(&b, "%d.%06d [0 127.0.0.1:6379] ", 1700000000+i/1000, i%1000)
		switch {
		case r >= 96:
			fmt.Fprintf(&b, "\"DEL\" \"key:%d\"\n", k)
		case r >= 80:
			fmt.Fprintf(&b, "\"SET\" \"key:%d\" \"%s\"\n", k, strings.Repeat("v", 64+(k%16)*32))
		default:
			fmt.Fprintf(&b, "\"GET\" \"key:%d\"\n", k)
		}
	}
	return b.String()
}

// TestCaptureKernelMatchesPerOp profiles a MONITOR capture with DELs on
// every engine, with the batched kernel serving the runs between its
// structural requests and with server.Config.DisableBatchReplay: the two
// reports must be equal. Every frame of the capture carries a DEL, so
// the kernel side mixes the two paths in each frame (on the hash and slab
// engines; the tree engine serves such frames per-op).
func TestCaptureKernelMatchesPerOp(t *testing.T) {
	w, err := LoadRedisMonitor(strings.NewReader(monitorCapture(12000, 1500)), 16384)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{RedisLike, MemcachedLike, DynamoLike} {
		opts := Options{Store: e, Seed: 7, Runs: 3, SLO: 0.10}
		cfg, pol, err := opts.coreConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Server.DisableBatchReplay = true
		want, err := core.Profile(context.Background(), cfg, w, pol, opts.SLO)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewSink()
		opts.Obs = sink
		got, err := Profile(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: kernel report diverged from DisableBatchReplay:\n  kernel: %+v\n  per-op: %+v", e, got, want)
		}
		kernel := sink.Counter(obs.Name("mnemo_client_requests_total", "path", "kernel")).Value()
		if (kernel > 0) != (e != DynamoLike) {
			t.Fatalf("%v: %d requests served by the kernel", e, kernel)
		}
	}
}
