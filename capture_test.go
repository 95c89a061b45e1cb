package mnemo

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/obs"
)

// monitorCapture generates a Redis MONITOR capture of GETs, SETs and
// DELs over keys key:0 … key:keys-1 with the Park–Miller generator: 80%
// GET, 16% SET of 64 B–544 B, 4% DEL.
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
// structural requests and with server.Config.DisableBatchReplay, each at
// GOMAXPROCS 1 and 2: all four reports must be equal. Every frame of the
// capture carries a DEL, so the kernel side mixes the two paths in each
// frame (on the hash and slab engines; the tree engine serves such
// frames per-op), and its reads of deleted records are priced from the
// shared LLC stream too. Its never-SET keys take the 16 KiB default
// size, which overflows the LLC.
func TestCaptureKernelMatchesPerOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w, err := LoadRedisMonitor(strings.NewReader(monitorCapture(12000, 1500)), 16384)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{RedisLike, MemcachedLike, DynamoLike} {
		opts := Options{Store: e, Seed: 7, Runs: 3, SLO: 0.10}
		perOp := func(procs int) *Report {
			runtime.GOMAXPROCS(procs)
			cfg, pol, err := opts.coreConfig(nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Server.DisableBatchReplay = true
			rep, err := core.Profile(context.Background(), cfg, w, pol, opts.SLO)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		want := perOp(1)
		if got := perOp(2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: per-op report differs between GOMAXPROCS 1 and 2:\n  2: %+v\n  1: %+v", e, got, want)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			sink := NewSink()
			kopts := opts
			kopts.Obs = sink
			got, err := Profile(w, kopts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: kernel report at GOMAXPROCS=%d diverged from DisableBatchReplay:\n  kernel: %+v\n  per-op: %+v", e, procs, got, want)
			}
			kernel := sink.Counter(obs.Name("mnemo_client_requests_total", "path", "kernel")).Value()
			if (kernel > 0) != (e != DynamoLike) {
				t.Fatalf("%v: %d requests served by the kernel", e, kernel)
			}
		}
	}
}
