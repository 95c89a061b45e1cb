package client

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mnemo/internal/server"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// attachShare opens an LLC share under ctx and attaches d — loaded,
// no request priced yet — to its stream of w, as a measuring call
// attaches each member it loads. The caller closes the share once the
// run has returned.
func attachShare(t *testing.T, ctx context.Context, d *server.Deployment, w *ycsb.Workload) *server.LLCShare {
	t.Helper()
	sh := server.NewLLCShare(ctx)
	if !d.AttachLLCStream(sh, w) {
		t.Fatal("deployment refused the share's stream")
	}
	return sh
}

// awaitOpens waits up to 5 s until a test stream has been opened n
// times. Attaching a run starts the stream's producer, which opens the
// trace on its own goroutine, so a test that tells the producer's
// iterator from the run's by open order awaits the producer's open
// before it starts the run.
func awaitOpens(t *testing.T, opened *atomic.Int32, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); opened.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("stream opened %d times in 5 s, want %d", opened.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedStream serves w's frames. The second iterator opened — the
// run's own, opened once the producer has opened its own (awaitOpens) —
// closes reading when asked for its second frame: the run has served
// frame 0 and is about to wait for frame 1's bits. Every other iterator
// — the first is the producer's — stalls before its second frame until
// gate closes, so frame 1 is never published.
type gatedStream struct {
	w       *ycsb.Workload
	opened  *atomic.Int32
	reading chan struct{}
	gate    chan struct{}
}

func (s gatedStream) Requests() int { return len(s.w.Ops) }

func (s gatedStream) Frames() (ycsb.FrameIter, error) {
	frames, err := s.w.Frames()
	it := &gatedIter{frames: frames, gate: s.gate}
	if s.opened.Add(1) == 2 {
		it.gate, it.reading = nil, s.reading
	}
	return it, err
}

type gatedIter struct {
	frames        ycsb.Frames
	gate, reading chan struct{}
	n             int
}

func (it *gatedIter) Next() ([]uint32, []uint8, bool, error) {
	if it.n++; it.n == 2 {
		if it.reading != nil {
			close(it.reading)
		}
		if it.gate != nil {
			<-it.gate
		}
	}
	return it.frames.Next()
}

// TestSharedLLCCancelWhileWaiting cancels a run that has served frame 0
// and waits for the producer to publish frame 1: the run must return
// the context's error promptly, and releasing the share must stop the
// producer.
func TestSharedLLCCancelWhileWaiting(t *testing.T) {
	warmup := runtime.NumGoroutine()
	w := adaptiveTestWorkload(0.9)
	gs := gatedStream{w: w, opened: new(atomic.Int32), reading: make(chan struct{}), gate: make(chan struct{})}
	gw := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: gs}
	d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 7))
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
	<-gs.reading
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run still waiting on the stream 5 s after cancellation")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) || err.Error() != context.Canceled.Error() {
		t.Fatalf("run error %v, want the bare context error", err)
	}
	if d.Clock() == 0 {
		t.Fatal("frame 0 was not served before the wait; the test did not exercise it")
	}
	close(gs.gate)
	sh.Close()
	requireGoroutinesBack(t, warmup)
}

// requireGoroutinesBack waits up to 2 s for the goroutine count to fall
// back to warmup.
func requireGoroutinesBack(t *testing.T, warmup int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > warmup; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", warmup, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSharedLLCCorruptFrame: a .mtrc frame that fails its checksum mid
// trace ends the producer's stream, and a measuring call's run reading
// it fails with exactly the error a run on the private walker fails
// with.
func TestSharedLLCCorruptFrame(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	path := filepath.Join(t.TempDir(), "corrupt.mtrc")
	if err := trace.WriteWorkload(w, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0xff // inside a frame a few frames in
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tw, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenEngines {
		cfg := server.DefaultConfig(e, 9)
		cfg.Machine.LLCBytes = matrixLLCBytes
		want := runCell(t, context.Background(), cfg, tw, halfFast(w), false).Err
		_, got := measureOne(context.Background(), cfg, tw, halfFast(w), 2, 0)
		if want == "" || got == nil || got.Error() != "client: repetition 0 (seed 9): "+want {
			t.Fatalf("%v: shared error %v, private %q; want the same decode error", e, got, want)
		}
	}
}

// TestSharedLLCServeZeroAllocs pins a run priced from an attached
// stream at zero allocations once the share holds the stream: rewinding,
// attaching, waiting on a finished producer and serving allocate
// nothing.
func TestSharedLLCServeZeroAllocs(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "alloc", Keys: 512, Requests: 4 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 9,
	})
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.NoiseSigma = 0
	cfg.Machine.LLCBytes = matrixLLCBytes
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh := server.NewLLCShare(ctx)
	defer sh.Close()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum(classes)
	pass := func() {
		if !d.ResetRun(3) || !d.AttachLLCStream(sh, w) {
			t.Fatal("deployment not rewindable, or it refused the stream")
		}
		if _, err := replayFrames(ctx, d, w, classes, a); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("steady-state shared replay allocates %.1f times per pass, want 0", allocs)
	}
}

// TestSharedLLCProducerOpenError: a producer that cannot read the trace
// publishes nothing, and the run waiting on it fails with the
// producer's error rather than serving unpriced requests.
func TestSharedLLCProducerOpenError(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	opened := new(atomic.Int32)
	sw := &ycsb.Workload{Spec: w.Spec, Dataset: w.Dataset, Stream: openFailStream{w: w, opened: opened, fail: 1}}
	cfg := server.DefaultConfig(server.RedisLike, 7)
	cfg.Machine.LLCBytes = matrixLLCBytes
	d := server.NewDeployment(cfg)
	if err := d.Load(sw.Dataset, halfFast(w)); err != nil {
		t.Fatal(err)
	}
	sh := attachShare(t, context.Background(), d, sw)
	defer sh.Close()
	awaitOpens(t, opened, 1) // the producer's open fails, the run's does not
	_, err := RunCtx(context.Background(), d, sw, 0)
	if want := "server: LLC stream stopped after 0 requests: trace file vanished"; err == nil || err.Error() != want || d.Clock() != 0 {
		t.Fatalf("run error %v at clock %v, want %q before any request", err, d.Clock(), want)
	}
}
