package client

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// The baseline-pair column: the FastMem and SlowMem legs of a measuring
// call run as two lanes of one deployment (laneGroups), and each lane
// must measure exactly what its leg measures alone.

// captureTrace parses a Redis MONITOR capture of GETs, SETs and DELs
// (80/16/4%) over keys key:0 … key:keys-1: every frame carries DELs,
// reads of deleted keys and re-inserts, and never-SET keys take the
// 1 KiB default size.
func captureTrace(t *testing.T, lines, keys int) *ycsb.Workload {
	t.Helper()
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
	w, err := ycsb.ParseRedisMonitor(strings.NewReader(b.String()), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// baselineTraces are the column's three traces: a read-only trending
// trace (kernel-served), a Delete-dense MONITOR capture (per-op runs
// in every frame) and a read/write trace with two records over 1 MB,
// which slabkv refuses at Load.
func baselineTraces(t *testing.T) map[string]*ycsb.Workload {
	big := adaptiveTestWorkload(0.9)
	for _, op := range big.Ops[:2] {
		big.Dataset.Records[op.Key].Size = 3 << 19
	}
	return map[string]*ycsb.Workload{
		"trending": ycsb.MustGenerate(ycsb.Spec{
			Name: "trending", Keys: 500, Requests: 5 * replayBlockOps,
			Dist:      ycsb.DistSpec{Kind: ycsb.Zipfian},
			ReadRatio: 1.0, Sizes: ycsb.SizeTrendingPreview, Seed: 3,
		}),
		"capture":   captureTrace(t, 5*replayBlockOps, 400),
		"oversized": big,
	}
}

// baselineLegs are the two legs core.MeasureBaselines measures.
func baselineLegs(fast server.Config) []Leg {
	slow := fast
	slow.Seed += 7919
	return []Leg{
		{Name: "fast", Cfg: fast, Placement: server.AllFast()},
		{Name: "slow", Cfg: slow, Placement: server.AllSlow()},
	}
}

func TestBaselinePairLanesMatchSeparateLegs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	for name, w := range baselineTraces(t) {
		for _, b := range []struct {
			name string
			w    *ycsb.Workload
		}{{"inmem", w}, {"mtrc", streamedTwin(t, w)}} {
			for _, e := range goldenEngines {
				for _, shards := range []int{0, 4} {
					for _, runs := range []int{1, 2} {
						for _, procs := range []int{1, 2} {
							runtime.GOMAXPROCS(procs)
							cell := fmt.Sprintf("%s/%s/%v/shards=%d/runs=%d/procs=%d", name, b.name, e, shards, runs, procs)
							fast := server.DefaultConfig(e, 7)
							fast.Machine.LLCBytes = matrixLLCBytes
							fast.Shards = shards
							legs := baselineLegs(fast)
							before := walks.Load()
							got, err := Measure(ctx, b.w, runs, 2, nil, legs)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							if n, want := walks.Load()-before, int64(runs*max(shards, 1)); n != want {
								t.Fatalf("%s: the pair took %d engine walks, want one per repetition and shard (%d)", cell, n, want)
							}
							for k, leg := range legs {
								want, err := measureOne(ctx, leg.Cfg, b.w, leg.Placement, runs, 0)
								if err != nil {
									t.Fatalf("%s: %v", cell, err)
								}
								if !reflect.DeepEqual(got[k], want) {
									t.Fatalf("%s: lane %q diverged from its leg measured alone:\n got:  %+v\n want: %+v", cell, leg.Name, got[k], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// A lane whose tier cannot hold the dataset fails the pair with its own
// leg's error, named as its leg: FastMem's when both overflow, since
// the lower leg wins, and SlowMem's when only it does.
func TestBaselinePairCapacityError(t *testing.T) {
	ctx := context.Background()
	w := adaptiveTestWorkload(0.9)
	for _, shards := range []int{0, 4} {
		for _, c := range []struct {
			name      string
			fast, slo int64
			leg       int
		}{{"both", 1024, 1024, 0}, {"fast", 1024, 0, 0}, {"slow", 0, 1024, 1}} {
			cfg := server.DefaultConfig(server.RedisLike, 7)
			cfg.Shards = shards
			cfg.Machine.FastCapacity, cfg.Machine.SlowCapacity = c.fast, c.slo
			legs := baselineLegs(cfg)
			_, err := Measure(ctx, w, 2, 2, nil, legs)
			_, want := Measure(ctx, w, 2, 2, nil, legs[c.leg:c.leg+1])
			if err == nil || want == nil || err.Error() != want.Error() || !strings.HasPrefix(err.Error(), legs[c.leg].Name+": ") {
				t.Fatalf("shards=%d, %s overflows: pair error %v, want its %q leg's own %v", shards, c.name, err, legs[c.leg].Name, want)
			}
		}
	}
}

// With a live sink, the pair's telemetry is that of its two legs
// measured separately: the same Prometheus dump and the same multiset
// of journal events (wall time aside). The pool's own job counter is
// left out of the dump: it counts the jobs the pool ran, and one walk
// for two legs runs half as many. So is the LLC stream counter: it
// counts where each measuring call found its stream, and the legs'
// second call takes the first one's from the workload's memo.
func TestBaselinePairTelemetry(t *testing.T) {
	ctx := context.Background()
	for name, w := range baselineTraces(t) {
		for _, shards := range []int{0, 4} {
			measure := func(groups ...[]Leg) *obs.Sink {
				sink := obs.NewSink()
				for _, legs := range groups {
					for i := range legs {
						legs[i].Cfg.Obs = sink
					}
					if _, err := Measure(ctx, w, 2, 2, sink, legs); err != nil {
						t.Fatal(err)
					}
				}
				return sink
			}
			cfg := server.DefaultConfig(server.MemcachedLike, 7)
			cfg.Machine.LLCBytes = matrixLLCBytes
			cfg.Shards = shards
			legs := baselineLegs(cfg)
			pair := measure(legs)
			legs = baselineLegs(cfg)
			apart := measure(legs[:1], legs[1:])
			cell := fmt.Sprintf("%s/shards=%d", name, shards)
			if got, want := promDump(t, pair), promDump(t, apart); got != want {
				t.Fatalf("%s: the pair's metrics differ from its legs':\n got:\n%s\n want:\n%s", cell, got, want)
			}
			if got, want := eventSet(pair), eventSet(apart); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the pair's journal differs from its legs':\n got:  %v\n want: %v", cell, got, want)
			}
		}
	}
}

// promDump renders the sink's metrics without the pool job counter and
// the LLC stream counter.
func promDump(t *testing.T, sink *obs.Sink) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sink.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "mnemo_pool_jobs_total") && !strings.Contains(line, "mnemo_server_llc_streams_total") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// eventSet lists the journal's events without sequence numbers and
// wall time, sorted.
func eventSet(sink *obs.Sink) []string {
	var out []string
	for _, e := range sink.Journal().Events() {
		out = append(out, fmt.Sprintf("%s %s %s %v", e.Kind, e.Stage, e.Detail, e.Sim))
	}
	sort.Strings(out)
	return out
}
