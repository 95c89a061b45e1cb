package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

// The LLC model (DESIGN.md §12, stage 1).
//
// Whether a request hits the record-level LLC depends on the trace, the
// records' LLC footprints, the records the engine refuses at Load and
// the cache size alone — not on the tier, the noise seed or migration,
// which leaves residency alone. Which records are live is the trace's
// Deletes and Writes, also for a record a migration re-creates. So one
// walker, llcWalker, prices every request kind from the trace, and
// Serve and DoIndex alike read its hit bit: a run under an LLCShare
// reads the bits a producer goroutine walks once for the whole
// measurement call (llcStream); any other run walks a private walker.

// llcWalker walks the LLC over a trace, one request at a time, touching
// the cache with what the per-op path's valueBytes gives: a Read its
// record's read footprint, or 0 bytes ("not found") while the record is
// not live; a Write the record's size, making it live again; a Delete 0
// bytes, then it drops the record and marks it not live. A record the
// engine refused at Load is never live: its read footprint is 0.
type llcWalker struct {
	cache *memsim.LRUCache
	// foot[2k+kind] is record k's footprint under a Read (0) or a Write (1).
	foot []int32
	// dead marks the records a Delete removed and no Write has
	// re-inserted since, nDead of them.
	dead  []bool
	nDead int
}

// newLLCWalker returns a cold walker over the records of one dataset,
// served by engine e, with a cache of the given capacity.
func newLLCWalker(recs []ycsb.Record, e Engine, capacity int64) *llcWalker {
	w := &llcWalker{
		cache: memsim.NewLRUCache(capacity),
		foot:  make([]int32, 2*len(recs)),
		dead:  make([]bool, len(recs)),
	}
	w.cache.Reserve(len(recs))
	readAmp := e.Profile().ReadAmplification
	for k := range recs {
		if e.stores(&recs[k]) {
			w.foot[2*k] = int32(llcFootprint(uint8(kvstore.Read), recs[k].Size, readAmp))
		}
		w.foot[2*k+1] = int32(recs[k].Size)
	}
	return w
}

// step walks request k of the given kind and reports whether it hit.
func (w *llcWalker) step(k uint32, kind uint8) bool {
	if kind > uint8(kvstore.Write) || w.nDead > 0 && w.dead[k] {
		return w.structural(k, kvstore.OpKind(kind))
	}
	return w.cache.Touch(memsim.RecordRef{ID: uint64(k), Bytes: int(w.foot[2*int(k)+int(kind)])})
}

// structural walks a Delete, or a Read or Write of a dead record.
func (w *llcWalker) structural(k uint32, kind kvstore.OpKind) bool {
	ref := memsim.RecordRef{ID: uint64(k)}
	switch kind {
	case kvstore.Read: // not found: 0 bytes
	case kvstore.Write:
		ref.Bytes = int(w.foot[2*int(k)+1])
		w.dead[k] = false
		w.nDead--
	default:
		hit := w.cache.Touch(ref)
		w.cache.Remove(ref.ID)
		if !w.dead[k] {
			w.dead[k] = true
			w.nDead++
		}
		return hit
	}
	return w.cache.Touch(ref)
}

// reset makes the walker cold again, every record live but the refused.
func (w *llcWalker) reset() {
	w.cache.Flush()
	clear(w.dead)
	w.nDead = 0
}

// llcStream is one trace's shared LLC hit stream, walked by its own
// producer goroutine over the whole trace. It is safe for concurrent
// readers.
type llcStream struct {
	// words holds the outcomes: bit j%64 of words[j/64] is set when
	// request j hits. The producer stores each word whole, so a word a
	// frame ends inside is stored again as the next frame fills it.
	words []atomic.Uint64
	// published is the number of requests whose bits are final.
	published atomic.Int64

	mu   sync.Mutex
	end  error         // why the producer stopped (wrapping io.EOF at the trace's end); nil until then
	wake chan struct{} // closed at the next publish; nil while nobody waits
	done chan struct{} // closed when the producer has returned
}

// startLLCStream walks key's trace on a new producer goroutine, which
// returns at the trace's end, at a decode error or when ctx is
// cancelled.
func startLLCStream(ctx context.Context, key llcShareKey) *llcStream {
	s := &llcStream{
		words: make([]atomic.Uint64, (key.w.RequestCount()+63)/64),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		n, err := s.produce(ctx, key)
		s.publish(n, fmt.Errorf("server: LLC stream stopped after %d requests: %w", n, err))
	}()
	return s
}

// produce walks a private walker over the trace, publishing each
// frame's outcomes, and returns how many it published and why it
// stopped.
func (s *llcStream) produce(ctx context.Context, key llcShareKey) (int, error) {
	frames, err := key.w.Frames()
	if err != nil {
		return 0, err
	}
	w := newLLCWalker(key.w.Dataset.Records, key.engine, key.capacity)
	n := 0
	var word uint64
	for ctx.Err() == nil {
		keys, kinds, _, err := frames.Next()
		if err != nil {
			return n, err
		}
		if n+len(keys) > 64*len(s.words) {
			return n, errors.New("the trace holds more requests than it declares")
		}
		for i, k := range keys {
			if w.step(k, kinds[i]) {
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
		s.publish(n, nil)
	}
	return n, ctx.Err()
}

// publish makes the first n requests' bits visible and wakes waiters;
// a non-nil end ends the stream.
func (s *llcStream) publish(n int, end error) {
	s.published.Store(int64(n))
	s.mu.Lock()
	s.end = end
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.mu.Unlock()
}

// covers reports whether the first n requests' bits are published.
func (s *llcStream) covers(n int) bool { return s.published.Load() >= int64(n) }

// bit returns request j's published outcome, 1 for a hit.
func (s *llcStream) bit(j int) uint8 { return uint8(s.words[j>>6].Load()>>(j&63)) & 1 }

// await blocks until the stream covers the first n requests, returning
// nil. It returns ctx's error if ctx is cancelled first, and otherwise
// why the producer stopped when the stream ended short of n.
func (s *llcStream) await(ctx context.Context, n int) error {
	for !s.covers(n) {
		s.mu.Lock()
		if s.covers(n) {
			s.mu.Unlock()
			break
		}
		if end := s.end; end != nil {
			s.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return err
			}
			return end
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// LLCShare is the set of LLC streams one measurement call shares among
// its runs: one per (trace, engine, cache size), so each shard
// sub-trace of a cluster gets its own. A stream starts when the first
// run asks for it. Close stops every producer and waits for it; the
// share must not outlive the call that made it, since a stream holds a
// bit per request of its trace.
type LLCShare struct {
	ctx     context.Context
	cancel  context.CancelFunc
	mu      sync.Mutex
	closed  bool
	streams map[llcShareKey]*llcStream
}

// llcShareKey is everything a stream's bits depend on. The engine
// enters through the records it refuses and its read amplification.
type llcShareKey struct {
	w        *ycsb.Workload
	engine   Engine
	capacity int64
}

// NewLLCShare opens a share whose producers stop when ctx is cancelled
// or the share is closed.
func NewLLCShare(ctx context.Context) *LLCShare {
	ctx, cancel := context.WithCancel(ctx)
	return &LLCShare{ctx: ctx, cancel: cancel, streams: map[llcShareKey]*llcStream{}}
}

// Close stops the share's producers and returns once all have exited.
// A run still attached reads what was published and fails past it.
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
// w instead of the private walker, and reports whether it did. The
// stream's bits start at the trace's first request, from a cold cache
// with every record loaded, so it attaches nothing once the deployment
// has priced a request since Load or ResetRun, nor without an LLC
// model, nor to a trace of another dataset. Load and ResetRun detach
// the stream.
func (d *Deployment) AttachLLCStream(sh *LLCShare, w *ycsb.Workload) bool {
	if sh == nil || d.cfg.Machine.LLCBytes <= 0 || d.llcOff != 0 || len(w.Dataset.Records) != len(d.records) {
		return false
	}
	d.llcs = sh.stream(llcShareKey{w: w, engine: d.cfg.Engine, capacity: d.cfg.Machine.LLCBytes})
	return d.llcs != nil
}

// AwaitFrame waits until the attached stream has published the run's
// next n requests, and is called before each frame is served. Without
// a stream it returns at once. It returns ctx's error if ctx is
// cancelled meanwhile, and the producer's reason if its stream ended
// short of the frame.
func (d *Deployment) AwaitFrame(ctx context.Context, n int) error {
	if d.llcs == nil {
		return nil
	}
	return d.llcs.await(ctx, d.llcOff+n)
}

// privateLLC returns the private LLC walker, building it on first use;
// nil without an LLC model.
func (d *Deployment) privateLLC() *llcWalker {
	if d.llc == nil && d.cfg.Machine.LLCBytes > 0 {
		d.llc = newLLCWalker(d.records, d.cfg.Engine, d.cfg.Machine.LLCBytes)
	}
	return d.llc
}

// llcHit returns the LLC outcome of the run's next request, record k of
// the given kind, from the attached stream or the private walker, and
// tallies it.
func (d *Deployment) llcHit(k uint32, kind kvstore.OpKind) bool {
	var hit uint8
	if s := d.llcs; s != nil {
		if !s.covers(d.llcOff + 1) {
			panic("server: DoIndex past the attached LLC stream's published prefix")
		}
		hit = s.bit(d.llcOff)
	} else if w := d.privateLLC(); w == nil {
		return false
	} else if w.step(k, uint8(kind)) {
		hit = 1
	}
	d.tallyLLC(int(hit), 1)
	return hit == 1
}

// tallyLLC counts n requests priced from the LLC model, hits of them
// hits.
func (d *Deployment) tallyLLC(hits, n int) {
	d.llcHits += int64(hits)
	d.llcMisses += int64(n - hits)
	d.llcOff += n
	if d.llcs != nil {
		d.streamReqs += int64(n)
	}
}

// LLCHitRate reports the share of the requests priced since Load or
// ResetRun that hit the LLC, or 0 when none was priced.
func (d *Deployment) LLCHitRate() float64 {
	total := d.llcHits + d.llcMisses
	if total == 0 {
		return 0
	}
	return float64(d.llcHits) / float64(total)
}
