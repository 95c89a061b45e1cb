package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

// Shared LLC hit stream (DESIGN.md §12, stage 1).
//
// Whether a request hits the record-level LLC depends on the key
// stream, the records' LLC footprints and the cache size alone. The
// tier does not enter it, nor the noise seed, nor migration, which
// leaves residency alone (migrate.go). One measurement replays the same
// trace many times over — a Fast and a Slow leg, Runs repetitions each,
// one run per validation point — so the LLC is walked once, by a
// producer goroutine, and published as one bit per request, frame by
// frame. Every run of the measurement reads bits instead of touching
// its own cache: Serve's stage 1 becomes "read bit, select cost".
//
// The stream covers the trace's longest prefix of read/write-only
// frames: the producer stops at the first frame carrying another kind
// (a Delete invalidates, and may re-insert, records the stream cannot
// foresee), at a decode error and on cancellation. A run that needs
// its live cache — its next frame goes per-op, or lies past the
// stream's end — first hands over: it touches the prefix it served
// into its cold cache, in order, which reproduces exactly the state a
// live walk would have reached, and detaches.

// llcStream is one workload's shared LLC hit stream, walked by its own
// producer goroutine. It is safe for concurrent readers.
type llcStream struct {
	w        *ycsb.Workload
	capacity int64
	// foot[2k+kind] is record k's LLC footprint under a Read or a Write.
	foot []int32
	// words holds the outcomes: bit j%64 of words[j/64] is set when
	// request j hits. The producer stores each word whole, so a word a
	// frame ends inside is stored again as the next frame fills it.
	words []atomic.Uint64
	// published is the number of requests whose bits are final.
	published atomic.Int64

	mu    sync.Mutex
	ended bool          // the producer will publish no more
	wake  chan struct{} // closed at the next publish or end; nil while nobody waits
	done  chan struct{} // closed when the producer has returned
}

// startLLCStream walks the LLC outcomes of key.w at key's cache
// capacity and read amplification on a new producer goroutine, which
// returns when the stream ends or ctx is cancelled.
func startLLCStream(ctx context.Context, key llcShareKey) *llcStream {
	recs := key.w.Dataset.Records
	s := &llcStream{
		w: key.w, capacity: key.capacity,
		foot:  make([]int32, 2*len(recs)),
		words: make([]atomic.Uint64, (key.w.RequestCount()+63)/64),
		done:  make(chan struct{}),
	}
	for k := range recs {
		for kind := uint8(0); kind < 2; kind++ {
			s.foot[2*k+int(kind)] = int32(llcFootprint(kind, recs[k].Size, key.readAmp))
		}
	}
	go s.produce(ctx)
	return s
}

// ref is the cache reference of a request of the given kind on record k.
func (s *llcStream) ref(k uint32, kind uint8) memsim.RecordRef {
	return memsim.RecordRef{ID: uint64(k), Bytes: int(s.foot[2*int(k)+int(kind&1)])}
}

// produce is the producer goroutine: it walks a private cache over the
// trace's read/write-only prefix, publishing each frame's outcomes.
func (s *llcStream) produce(ctx context.Context) {
	defer close(s.done)
	defer s.end()
	frames, err := s.w.Frames()
	if err != nil {
		return
	}
	cache := memsim.NewLRUCache(s.capacity)
	cache.Reserve(len(s.w.Dataset.Records))
	n := 0
	var word uint64
	for ctx.Err() == nil {
		keys, kinds, rw, err := frames.Next()
		if err != nil || !rw || n+len(keys) > 64*len(s.words) {
			return
		}
		for i, k := range keys {
			if cache.Touch(s.ref(k, kinds[i])) {
				word |= 1 << (n & 63)
			}
			if n++; n&63 == 0 {
				s.words[n/64-1].Store(word)
				word = 0
			}
		}
		if n&63 != 0 {
			s.words[n/64].Store(word)
		}
		s.publish(n)
	}
}

// publish makes the first n requests' bits visible and wakes waiters.
func (s *llcStream) publish(n int) {
	s.published.Store(int64(n))
	s.mu.Lock()
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}

// end marks the stream complete and wakes waiters.
func (s *llcStream) end() {
	s.mu.Lock()
	s.ended = true
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}

// covers reports whether the first n requests' bits are published.
func (s *llcStream) covers(n int) bool { return s.published.Load() >= int64(n) }

// await blocks until the stream covers the first n requests (true) or
// has ended short of them (false), or ctx is cancelled. A stream that
// ended because ctx was cancelled reports the cancellation, so the run
// returns instead of handing over.
func (s *llcStream) await(ctx context.Context, n int) (bool, error) {
	for !s.covers(n) {
		s.mu.Lock()
		if s.covers(n) {
			s.mu.Unlock()
			break
		}
		if s.ended {
			s.mu.Unlock()
			return false, ctx.Err()
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	return true, nil
}

// LLCShare is the set of LLC streams one measurement call shares among
// its runs: one per (workload, cache size, read amplification), so each
// shard sub-trace of a cluster gets its own. A stream starts when the
// first run asks for it. Close stops every producer and waits for it;
// the share must not outlive the call that made it, since a stream
// holds a bit per request of its trace.
type LLCShare struct {
	ctx     context.Context
	cancel  context.CancelFunc
	mu      sync.Mutex
	closed  bool
	streams map[llcShareKey]*llcStream
}

// llcShareKey is everything a stream's bits depend on.
type llcShareKey struct {
	w        *ycsb.Workload
	capacity int64
	readAmp  float64
}

// NewLLCShare opens a share whose producers stop when ctx is cancelled
// or the share is closed.
func NewLLCShare(ctx context.Context) *LLCShare {
	ctx, cancel := context.WithCancel(ctx)
	return &LLCShare{ctx: ctx, cancel: cancel, streams: map[llcShareKey]*llcStream{}}
}

// Close stops the share's producers and returns once all have exited.
// Runs still attached keep reading what was published and hand over
// past it.
func (sh *LLCShare) Close() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
	sh.cancel()
	for _, s := range sh.streams {
		<-s.done
	}
}

// stream returns the share's stream for key, starting it on first use;
// nil once the share is closed.
func (sh *LLCShare) stream(key llcShareKey) *llcStream {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil
	}
	s := sh.streams[key]
	if s == nil {
		s = startLLCStream(sh.ctx, key)
		sh.streams[key] = s
	}
	return s
}

// AttachLLCStream prices the run about to replay w from sh's stream of
// w instead of walking the live LLC, and reports whether it did. It
// must be called before the run's first request. It attaches nothing
// when the deployment has no LLC model or replays per-op by config, or
// when its cache is not cold (a stream starts from an empty cache).
// Load and ResetRun detach the stream.
func (d *Deployment) AttachLLCStream(sh *LLCShare, w *ycsb.Workload) bool {
	llc := d.machine.LLC()
	if sh == nil || llc == nil || llc.Len() != 0 || d.cfg.DisableBatchReplay || len(w.Dataset.Records) != len(d.records) {
		return false
	}
	s := sh.stream(llcShareKey{w: w, capacity: llc.Capacity(), readAmp: d.profile.ReadAmplification})
	d.llcs, d.llcsOff = s, 0
	return s != nil
}

// AwaitFrame readies the LLC model for the next frame of the run — keys
// and rw as FrameTable takes them — and is called before FrameTable.
// Without an attached stream it returns at once. With one, a frame the
// kernel will serve waits for the producer to publish it, returning
// ctx's error if cancelled meanwhile; a frame that will go per-op, or
// that the stream ended short of, hands the run over to the live cache
// first. The only other error is a trace that fails to re-read during
// the hand-over.
func (d *Deployment) AwaitFrame(ctx context.Context, keys []uint32, rw bool) error {
	s := d.llcs
	if s == nil {
		return nil
	}
	if d.kernelTable(keys, rw) != nil {
		ok, err := s.await(ctx, d.llcsOff+len(keys))
		if err != nil || ok {
			return err
		}
	}
	return d.handOver()
}

// handOver detaches the run's stream and rebuilds the live cache it
// replaced: the cache is cold (attachment requires it, and nothing has
// touched it since), so touching the served prefix [0, llcsOff) into
// it in order yields exactly the state a live walk would have reached.
// The hit/miss counters were credited as the prefix was served.
func (d *Deployment) handOver() error {
	s, n := d.llcs, d.llcsOff
	d.llcs, d.llcsOff = nil, 0
	d.handovers++
	if n == 0 {
		return nil
	}
	llc := d.machine.LLC()
	frames, err := s.w.Frames()
	for err == nil && n > 0 {
		keys, kinds, _, nextErr := frames.Next()
		if err = nextErr; err == nil {
			keys = keys[:min(n, len(keys))]
			for i, k := range keys {
				llc.Touch(s.ref(k, kinds[i]))
			}
			n -= len(keys)
		}
	}
	if err != nil {
		return fmt.Errorf("server: LLC hand-over: re-reading the trace: %w", err)
	}
	return nil
}
