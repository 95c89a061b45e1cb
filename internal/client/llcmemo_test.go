package client

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// The workload's LLC stream memo (server.LLCShare, DESIGN.md §12): a
// producer that walked the whole trace leaves its stream on the
// workload, keyed by engine and LLC size, and every later measuring
// call reads it instead of walking again. The counter
// mnemo_server_llc_streams_total{source} tells the two apart.

// llcMemoWorkload is adaptiveTestWorkload with every 50th record over
// 1 MB, which MemcachedLike refuses at Load: its LLC stream differs from
// RedisLike's, so a stream handed across engines shows in the results.
func llcMemoWorkload() *ycsb.Workload {
	w := adaptiveTestWorkload(0.9)
	for i := 0; i < len(w.Dataset.Records); i += 50 {
		w.Dataset.TotalBytes += 3<<19 - int64(w.Dataset.Records[i].Size)
		w.Dataset.Records[i].Size = 3 << 19
	}
	return w
}

// streamSources reads the sink's LLC stream counter by source.
func streamSources(sink *obs.Sink) (walk, memo int64) {
	return sink.Counter(obs.Name("mnemo_server_llc_streams_total", "source", "walk")).Value(),
		sink.Counter(obs.Name("mnemo_server_llc_streams_total", "source", "memo")).Value()
}

// measureLeg measures one half-fast leg of cfg on w, two repetitions,
// reporting into sink.
func measureLeg(ctx context.Context, cfg server.Config, w *ycsb.Workload, sink *obs.Sink) ([]RunStats, error) {
	cfg.Obs = sink
	return Measure(ctx, w, 2, 2, sink, []Leg{{Name: "memo", Cfg: cfg, Placement: halfFast(w)}})
}

// TestLLCMemoKeyedByEngineAndCapacity: two engines and two LLC sizes on
// one workload walk four streams, once each; a second pass reads all
// four from the memo. Every result equals the same call on a fresh copy
// of the workload, and the four differ, so a memo that ignored the
// engine or the LLC size would hand one cell another's stream.
func TestLLCMemoKeyedByEngineAndCapacity(t *testing.T) {
	ctx := context.Background()
	w := llcMemoWorkload()
	sink := obs.NewSink()
	type cell struct {
		engine server.Engine
		llc    int64
	}
	var cells []cell
	for _, e := range []server.Engine{server.RedisLike, server.MemcachedLike} {
		for _, llc := range []int64{2 << 20, 8 << 20} {
			cells = append(cells, cell{e, llc})
		}
	}
	hitRates := map[float64]bool{}
	for pass := 1; pass <= 2; pass++ {
		for i, c := range cells {
			cfg := server.DefaultConfig(c.engine, 7)
			cfg.Machine.LLCBytes = c.llc
			got, err := measureLeg(ctx, cfg, w, sink)
			if err != nil {
				t.Fatal(err)
			}
			want, err := measureLeg(ctx, cfg, llcMemoWorkload(), obs.NewSink())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, %v with a %d-byte LLC: the result differs from a fresh workload's", pass, c.engine, c.llc)
			}
			hitRates[got[0].LLCHitRate] = true
			wantWalk, wantMemo := int64(i+1), int64(0)
			if pass == 2 {
				wantWalk, wantMemo = int64(len(cells)), int64(i+1)
			}
			if walk, memo := streamSources(sink); walk != wantWalk || memo != wantMemo {
				t.Fatalf("pass %d, %v with a %d-byte LLC: streams walk=%d memo=%d, want %d and %d",
					pass, c.engine, c.llc, walk, memo, wantWalk, wantMemo)
			}
		}
	}
	if len(hitRates) != len(cells) {
		t.Fatalf("%d distinct LLC hit rates over %d cells: the cells do not tell their streams apart", len(hitRates), len(cells))
	}
}

// memoOutcome is one memoRun: the run's result and the stream sources
// of its share.
type memoOutcome struct {
	st         RunStats
	err        error
	walk, memo int64
}

// memoRun runs a fresh half-fast deployment of cfg over w under a share
// of its own. With a non-nil opened, the open count of w's stream, the
// run starts once the share's producer has opened the trace.
func memoRun(t *testing.T, cfg server.Config, w *ycsb.Workload, opened *atomic.Int32) memoOutcome {
	t.Helper()
	sink := obs.NewSink()
	cfg.Obs = sink
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, halfFast(w)); err != nil {
		t.Fatal(err)
	}
	var before int32
	if opened != nil {
		before = opened.Load()
	}
	sh := attachShare(t, context.Background(), d, w)
	if opened != nil {
		awaitOpens(t, opened, before+1)
	}
	st, err := RunCtx(context.Background(), d, w, 0)
	sh.Close()
	d.FlushObs()
	out := memoOutcome{st: st, err: err}
	out.walk, out.memo = streamSources(sink)
	return out
}

// openFailStream serves w's frames but fails its fail-th open.
type openFailStream struct {
	w      *ycsb.Workload
	opened *atomic.Int32
	fail   int32
}

func (s openFailStream) Requests() int { return len(s.w.Ops) }

func (s openFailStream) Frames() (ycsb.FrameIter, error) {
	if s.opened.Add(1) == s.fail {
		return nil, errors.New("trace file vanished")
	}
	frames, err := s.w.Frames()
	return &frames, err
}

// TestLLCMemoSkipsUnfinishedStreams: a stream that did not walk the
// whole trace — its call was cancelled, its producer could not open the
// trace, or a frame failed its checksum — is never memoized. The next
// call walks again and returns what the same call on a fresh workload
// returns; once a walk finishes, the call after it reads the memo.
func TestLLCMemoSkipsUnfinishedStreams(t *testing.T) {
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Machine.LLCBytes = matrixLLCBytes
	w := adaptiveTestWorkload(0.9)
	fresh := memoRun(t, cfg, adaptiveTestWorkload(0.9), nil)
	if fresh.err != nil {
		t.Fatal(fresh.err)
	}
	// requireWalksThenMemo runs the call after a failed one and the call
	// after that.
	requireWalksThenMemo := func(t *testing.T, name string, sw *ycsb.Workload) {
		t.Helper()
		if o := memoRun(t, cfg, sw, nil); o.err != nil || o.walk != 1 || o.memo != 0 || !reflect.DeepEqual(o.st, fresh.st) {
			t.Fatalf("%s: the next call: err %v, streams walk=%d memo=%d, same as fresh %t; want a walk and the fresh result",
				name, o.err, o.walk, o.memo, reflect.DeepEqual(o.st, fresh.st))
		}
		if o := memoRun(t, cfg, sw, nil); o.err != nil || o.walk != 0 || o.memo != 1 {
			t.Fatalf("%s: the call after a finished walk: err %v, streams walk=%d memo=%d; want the memo", name, o.err, o.walk, o.memo)
		}
	}

	t.Run("cancelled", func(t *testing.T) {
		gs := gatedStream{w: w, opened: new(atomic.Int32), reading: make(chan struct{}), gate: make(chan struct{})}
		gw := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: gs}
		d := server.NewDeployment(cfg)
		if err := d.Load(gw.Dataset, halfFast(gw)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sh := attachShare(t, ctx, d, gw)
		awaitOpens(t, gs.opened, 1)
		done := make(chan error, 1)
		go func() {
			_, err := RunCtx(ctx, d, gw, 0)
			done <- err
		}()
		<-gs.reading // the producer stalls before its second frame
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("run still waiting 5 s after cancellation")
		}
		close(gs.gate)
		sh.Close()
		requireWalksThenMemo(t, "cancelled", gw)
	})

	t.Run("producer open error", func(t *testing.T) {
		// The producer's open is the first (memoRun awaits it), the run's
		// the second.
		opened := new(atomic.Int32)
		sw := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: openFailStream{w: w, opened: opened, fail: 1}}
		if o := memoRun(t, cfg, sw, opened); o.err == nil || o.err.Error() != "server: LLC stream stopped after 0 requests: trace file vanished" || o.walk != 1 {
			t.Fatalf("open error: err %v after %d walks, want the producer's error", o.err, o.walk)
		}
		requireWalksThenMemo(t, "producer open error", sw)
	})

	t.Run("corrupt frame", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "corrupt.mtrc")
		if err := trace.WriteWorkload(w, path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)*3/5] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() *ycsb.Workload {
			tw, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return tw
		}
		tw := open()
		want := memoRun(t, cfg, open(), nil).err
		for call := 1; call <= 2; call++ {
			if o := memoRun(t, cfg, tw, nil); o.err == nil || want == nil || o.err.Error() != want.Error() || o.walk != 1 || o.memo != 0 {
				t.Fatalf("call %d on the corrupt trace: err %v, streams walk=%d memo=%d; want a walk and the fresh trace's error %v",
					call, o.err, o.walk, o.memo, want)
			}
		}
	})
}

// TestLLCMemoConcurrentMeasures: measuring calls racing on one workload
// — each may walk, and the first finished walk is memoized — all return
// what one call on a fresh workload does.
func TestLLCMemoConcurrentMeasures(t *testing.T) {
	ctx := context.Background()
	cfg := server.DefaultConfig(server.MemcachedLike, 5)
	cfg.Machine.LLCBytes = 2 << 20
	want, err := measureLeg(ctx, cfg, llcMemoWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := llcMemoWorkload()
	got := make([][]RunStats, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = measureLeg(ctx, cfg, w, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("call %d: err %v; the result differs from a fresh workload's", i, errs[i])
		}
	}
	sink := obs.NewSink()
	if _, err := measureLeg(ctx, cfg, w, sink); err != nil {
		t.Fatal(err)
	}
	if walk, memo := streamSources(sink); walk != 0 || memo != 1 {
		t.Fatalf("the call after the race: streams walk=%d memo=%d, want the memo", walk, memo)
	}
}
