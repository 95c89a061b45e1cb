// Package pool provides the bounded worker pool shared by the
// reproduction's embarrassingly parallel sweeps: the legs of a
// measuring call (internal/client.Measure — the two baselines, the
// validation points, the adaptive comparisons), each leg's repeated
// runs and shards, and the
// workload×engine profiling matrix (mnemo.ProfileMatrix). Each job owns
// its state (deployment, noise stream, accumulators), so parallel
// execution changes wall-clock time only — results are folded by the
// caller in job-index order, keeping parallel output bit-identical to
// serial.
//
// RunCtx is the hardened entry point: it honors context cancellation
// between jobs and converts a panicking job into a typed *PanicError
// instead of crashing the process or wedging the feeder goroutine. Map
// is the fan-out with results: RunObs under a shared worker budget,
// returning each job's value in index order.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mnemo/internal/obs"
)

// Workers clamps a requested worker count to [1, n] jobs, defaulting to
// GOMAXPROCS when the request is non-positive.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a panic recovered from a pool job, carrying the job
// index, the recovered value and the stack of the panicking goroutine.
// It is the typed error RunCtx returns so a sweep can report which cell
// blew up without taking the process down.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Job, e.Value)
}

// Guard runs fn, converting a panic into a *PanicError tagged with the
// given job index (nil when fn returns normally). Callers that want
// per-job failure isolation — e.g. a matrix sweep recording one cell's
// panic as that cell's error — wrap their job body in Guard so RunCtx
// never sees the panic at all.
func Guard(job int, fn func()) (perr *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			perr = &PanicError{Job: job, Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Run executes fn(0) … fn(n-1) across at most `workers` goroutines and
// returns once all calls have finished. Job indices are handed out in
// ascending order; with workers ≤ 1 the calls run sequentially on the
// calling goroutine, so a serial reference execution is the workers=1
// special case of the same code path. fn must write its result into
// caller-owned, index-addressed storage rather than shared state.
//
// A panic in fn is re-raised on the calling goroutine (as a *PanicError
// carrying the original value and stack) after the pool has shut down
// cleanly — workers exit, no goroutine leaks. Callers that want an
// error instead use RunCtx.
func Run(n, workers int, fn func(i int)) {
	if err := RunCtx(context.Background(), n, workers, fn); err != nil {
		// Background context cannot be cancelled, so the only possible
		// error is a recovered job panic; preserve panic semantics for
		// legacy callers.
		panic(err)
	}
}

// RunCtx is Run with cancellation and panic containment. It executes
// fn(0) … fn(n-1) across at most `workers` goroutines and returns nil
// once all jobs have finished.
//
// Cancellation: when ctx is cancelled (or its deadline passes) no new
// jobs are started; in-flight jobs run to completion and RunCtx returns
// ctx.Err(). Jobs that never started simply leave their index-addressed
// result slot untouched, so the caller observes a clean partial result.
//
// Panics: the first panicking job is recovered and converted into a
// *PanicError (job index, panic value, stack). Remaining queued jobs are
// drained without running, the feeder never blocks on a dead pool, and
// every worker goroutine exits before RunCtx returns. A panic takes
// precedence over a concurrent cancellation in the returned error.
func RunCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return RunObs(ctx, n, workers, nil, fn)
}

// RunObs is RunCtx with observability: the sink's pool metrics count
// completed jobs and contained panics, and a busy-worker gauge tracks
// occupancy while jobs execute. A nil sink records nothing and changes
// no behavior — RunCtx is exactly RunObs with a nil sink.
func RunObs(ctx context.Context, n, workers int, sink *obs.Sink, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tel := newPoolTelemetry(sink)
	workers = Workers(workers, n)
	// Under a shared worker budget (nested fan-outs; see Budget), the
	// calling goroutine is an implicit worker and each one beyond it
	// needs a token. Acquisition is non-blocking: a pool that gets
	// nothing runs the serial path below — same code, same job order.
	if b := BudgetFrom(ctx); b != nil && workers > 1 {
		granted := b.TryAcquire(workers - 1)
		defer b.ReleaseN(granted)
		workers = 1 + granted
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if perr := tel.guard(i, fn); perr != nil {
				return perr
			}
		}
		return nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	var mu sync.Mutex
	var first *PanicError
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue // drain: keep the feeder unblocked, run nothing
				}
				if perr := tel.guard(i, fn); perr != nil {
					mu.Lock()
					if first == nil {
						first = perr
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	mu.Lock()
	perr := first
	mu.Unlock()
	if perr != nil {
		return perr
	}
	return ctx.Err()
}

// Map runs fn(ctx, 0) … fn(ctx, n-1) through RunObs under the context's
// worker budget (installing a fresh one when ctx carries none, see
// EnsureBudget), hands every job that budgeted context, and returns the
// results in job-index order. A pool error — cancellation, a contained
// panic — is returned as is; otherwise the error of the lowest failing
// job wins, as in a serial loop that stops at its first failure.
func Map[T any](ctx context.Context, n, workers int, sink *obs.Sink, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	ctx = EnsureBudget(ctx)
	out := make([]T, n)
	errs := make([]error, n)
	if err := RunObs(ctx, n, workers, sink, func(i int) {
		out[i], errs[i] = fn(ctx, i)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poolTelemetry pre-resolves the pool's metric handles once per Run so
// the per-job cost with a live sink is two atomic adds and a gauge
// swing; with a nil sink every handle is nil and each call degrades to
// an inert branch.
type poolTelemetry struct {
	sink *obs.Sink
	jobs *obs.Counter // mnemo_pool_jobs_total
	pan  *obs.Counter // mnemo_pool_panics_total
	busy *obs.Gauge   // mnemo_pool_workers_busy
}

func newPoolTelemetry(s *obs.Sink) poolTelemetry {
	if s == nil {
		return poolTelemetry{}
	}
	return poolTelemetry{
		sink: s,
		jobs: s.Counter("mnemo_pool_jobs_total"),
		pan:  s.Counter("mnemo_pool_panics_total"),
		busy: s.Gauge("mnemo_pool_workers_busy"),
	}
}

// guard wraps one job in Guard plus occupancy accounting and panic
// telemetry.
func (t *poolTelemetry) guard(i int, fn func(int)) *PanicError {
	t.busy.Add(1)
	perr := Guard(i, func() { fn(i) })
	t.busy.Add(-1)
	t.jobs.Inc()
	if perr != nil {
		t.pan.Inc()
		t.sink.Eventf(obs.EventPanic, "pool", 0, "job %d panicked: %v", perr.Job, perr.Value)
	}
	return perr
}
