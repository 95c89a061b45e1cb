package ycsb_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/registry"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// The key tallies a measuring call's LLC walk takes (ycsb.AccessTally,
// server llcstream.go): a walk over the whole trace installs them on
// the workload, and CountAccesses and core.KeyStats read them from
// there instead of reading the trace again.

// countingStream counts the iterations started over a trace. With
// cancel set, each iteration cancels it on reaching its frame cancelAt.
type countingStream struct {
	ycsb.TraceStream
	opens    atomic.Int64
	cancelAt int
	cancel   context.CancelFunc
}

func (s *countingStream) Frames() (ycsb.FrameIter, error) {
	s.opens.Add(1)
	it, err := s.TraceStream.Frames()
	if err != nil || s.cancel == nil {
		return it, err
	}
	return &cancellingIter{FrameIter: it, left: s.cancelAt, cancel: s.cancel}, nil
}

type cancellingIter struct {
	ycsb.FrameIter
	left   int
	cancel context.CancelFunc
}

func (it *cancellingIter) Next() ([]uint32, []uint8, bool, error) {
	if it.left--; it.left == 0 {
		it.cancel()
	}
	return it.FrameIter.Next()
}

// spill writes w to a .mtrc file in a test directory.
func spill(t *testing.T, w *ycsb.Workload) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// openCounted opens the .mtrc file at path as a fresh streamed workload
// whose iterations its countingStream counts.
func openCounted(t *testing.T, path string) (*ycsb.Workload, *countingStream) {
	t.Helper()
	w, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStream{TraceStream: w.Stream}
	w.Stream = cs
	return w, cs
}

// monitorCapture is a Redis MONITOR capture over keys keys: 80% GET,
// 16% SET, 4% DEL, from the Park–Miller generator.
func monitorCapture(lines, keys int) string {
	var b strings.Builder
	x := 7
	next := func(n int) int {
		x = x * 16807 % 2147483647
		return x % n
	}
	for i := range lines {
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

// tallyCases are the workloads the walk's tallies are checked on: every
// built-in preset, small, and a MONITOR capture with DELs. Each call
// builds them afresh.
func tallyCases(t *testing.T) map[string]func() *ycsb.Workload {
	cases := map[string]func() *ycsb.Workload{}
	for _, name := range ycsb.AllWorkloadNames() {
		cases[name] = func() *ycsb.Workload {
			w, err := registry.ResolveWorkload(name, 3, 400, 12_000)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	capture := monitorCapture(12_000, 400)
	cases["monitor-del"] = func() *ycsb.Workload {
		w, err := ycsb.ParseRedisMonitor(strings.NewReader(capture), 1024)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return cases
}

// measure runs the Sensitivity Engine's measuring call on w.
func measure(ctx context.Context, e server.Engine, w *ycsb.Workload) error {
	_, err := core.MeasureBaselines(ctx, core.DefaultConfig(e, 1), w)
	return err
}

// TestWalkTalliesEqualOwnPass: after a measuring call, the tallies its
// walk installed equal CountAccesses' own pass over a fresh copy, on
// every preset and on a capture with DELs, on RedisLike and DynamoLike,
// in memory and as .mtrc; a .mtrc workload's tallies are read without
// opening the trace again. The slices AccessCounts returns are the
// caller's: mutating them leaves KeyStats unchanged.
func TestWalkTalliesEqualOwnPass(t *testing.T) {
	ctx := context.Background()
	for name, build := range tallyCases(t) {
		path := spill(t, build())
		for _, e := range []server.Engine{server.RedisLike, server.DynamoLike} {
			for _, streamed := range []bool{false, true} {
				w, cs := build(), (*countingStream)(nil)
				if streamed {
					w, cs = openCounted(t, path)
				}
				if err := measure(ctx, e, w); err != nil {
					t.Fatalf("%s/%v: %v", name, e, err)
				}
				if w.InstalledTally() == nil {
					t.Fatalf("%s/%v streamed=%v: the walk installed no tally", name, e, streamed)
				}
				opens := int64(0)
				if cs != nil {
					opens = cs.opens.Load()
				}
				reads, writes, err := w.CountAccesses()
				if err != nil {
					t.Fatal(err)
				}
				if cs != nil && cs.opens.Load() != opens {
					t.Errorf("%s/%v: CountAccesses read the trace after the walk", name, e)
				}
				fresh := build()
				wantReads, wantWrites, err := fresh.CountAccesses()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(reads, wantReads) || !reflect.DeepEqual(writes, wantWrites) {
					t.Fatalf("%s/%v streamed=%v: walk tallies differ from CountAccesses' own pass", name, e, streamed)
				}
				for i := range reads {
					reads[i], writes[i] = -1, -1
				}
				got, err := core.KeyStats(w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.KeyStats(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v streamed=%v: KeyStats differs from a fresh copy's", name, e, streamed)
				}
			}
		}
	}
}

// TestCancelledWalkInstallsNoTally: a walk cancelled mid-trace installs
// nothing, and CountAccesses then reads the trace itself.
func TestCancelledWalkInstallsNoTally(t *testing.T) {
	w0, err := registry.ResolveWorkload("trending", 3, 400, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	path := spill(t, w0)
	w, cs := openCounted(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs.cancelAt, cs.cancel = 2, cancel
	if err := measure(ctx, server.RedisLike, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("measuring call cancelled mid-trace returned %v", err)
	}
	if w.InstalledTally() != nil {
		t.Fatal("a cancelled walk installed its tally")
	}
	cs.cancel = nil
	opens := cs.opens.Load()
	reads, writes := w.AccessCounts()
	if cs.opens.Load() != opens+1 {
		t.Errorf("CountAccesses opened the trace %d times, want 1", cs.opens.Load()-opens)
	}
	wantReads, wantWrites := w0.AccessCounts()
	if !reflect.DeepEqual(reads, wantReads) || !reflect.DeepEqual(writes, wantWrites) {
		t.Fatal("CountAccesses after a cancelled walk differs from the in-memory trace's")
	}
}

// TestTallyConcurrentReaders runs KeyStats and AccessCounts callers
// while the walk takes its tallies (run it under -race): every caller
// sees the same counts.
func TestTallyConcurrentReaders(t *testing.T) {
	w0, err := registry.ResolveWorkload("trending", 3, 400, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.KeyStats(w0)
	if err != nil {
		t.Fatal(err)
	}
	wantReads, wantWrites := w0.AccessCounts()
	w, _ := openCounted(t, spill(t, w0))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if g%2 == 0 {
					if got, err := core.KeyStats(w); err != nil || !reflect.DeepEqual(got, want) {
						errs <- fmt.Errorf("KeyStats during the walk: %v, equal %v", err, reflect.DeepEqual(got, want))
						return
					}
				} else if r, wr := w.AccessCounts(); !reflect.DeepEqual(r, wantReads) || !reflect.DeepEqual(wr, wantWrites) {
					errs <- errors.New("AccessCounts during the walk differs")
					return
				}
			}
		}()
	}
	if err := measure(context.Background(), server.RedisLike, w); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r, wr := w.AccessCounts(); !reflect.DeepEqual(r, wantReads) || !reflect.DeepEqual(wr, wantWrites) {
		t.Fatal("AccessCounts after the walk differs")
	}
}

// TestProfileTraceReads counts the iterations one Profile starts over a
// fresh .mtrc workload: the LLC walk and the replay with the default
// machine, whose walk takes the key tallies; the replay and KeyStats'
// own pass without an LLC model. A 4-shard call reads it three times:
// the split's two passes (count, then spool the shards' sub-traces) and
// KeyStats' own pass, since its walks run over the sub-traces, which
// take no tallies. KeyStats is the same every way.
func TestProfileTraceReads(t *testing.T) {
	w0, err := registry.ResolveWorkload("trending", 3, 1000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.KeyStats(w0)
	if err != nil {
		t.Fatal(err)
	}
	path := spill(t, w0)
	for _, c := range []struct {
		name   string
		shards int
		llc    bool
		reads  int64
	}{
		{"default machine", 0, true, 2},
		{"no LLC model", 0, false, 2},
		{"4 shards", 4, true, 3},
	} {
		w, cs := openCounted(t, path)
		cfg := core.DefaultConfig(server.RedisLike, 1)
		cfg.Server.Shards = c.shards
		if !c.llc {
			cfg.Server.Machine.LLCBytes = 0
		}
		if _, err := core.Profile(context.Background(), cfg, w, core.MnemoT, 0.1); err != nil {
			t.Fatal(err)
		}
		ks, err := core.KeyStats(w)
		if err != nil {
			t.Fatal(err)
		}
		if n := cs.opens.Load(); n != c.reads {
			t.Errorf("%s: Profile read the trace %d times, want %d", c.name, n, c.reads)
		}
		if !reflect.DeepEqual(ks, want) {
			t.Errorf("%s: KeyStats differs from the in-memory trace's", c.name)
		}
		if c.shards > 1 {
			p, err := shard.For(w, c.shards, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			for s, sub := range p.Subs {
				if sub.W.InstalledTally() != nil {
					t.Errorf("shard %d's walk took key tallies", s)
				}
			}
		}
	}
}
