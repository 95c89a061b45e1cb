package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetTryAcquire(t *testing.T) {
	b := NewBudget(3)
	if got := b.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) = %d", got)
	}
	if got := b.TryAcquire(5); got != 1 {
		t.Fatalf("TryAcquire(5) on 1 remaining = %d", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty budget = %d", got)
	}
	b.ReleaseN(3)
	if b.Extra() != 3 {
		t.Fatalf("Extra() = %d after full release", b.Extra())
	}
	if NewBudget(-1).Extra() != 0 {
		t.Fatal("negative allowance should clamp to 0")
	}
}

// TestNestedFanOutsShareBudget composes two pool layers — an outer
// 4-way fan-out whose every job runs an inner 8-way fan-out — under one
// 3-extra-worker budget, and asserts peak concurrent job execution
// never exceeds callers+extra. Without the budget this shape runs up to
// 4×8 jobs at once.
func TestNestedFanOutsShareBudget(t *testing.T) {
	const extra = 3
	ctx := WithBudget(context.Background(), NewBudget(extra))
	var active, peak atomic.Int64
	var mu sync.Mutex
	job := func(int) {
		a := active.Add(1)
		mu.Lock()
		if a > peak.Load() {
			peak.Store(a)
		}
		mu.Unlock()
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		active.Add(-1)
	}
	var inner atomic.Int64
	if err := RunObs(ctx, 4, 4, nil, func(int) {
		if err := RunObs(ctx, 8, 8, nil, func(i int) {
			inner.Add(1)
			job(i)
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if inner.Load() != 32 {
		t.Fatalf("ran %d inner jobs, want 32", inner.Load())
	}
	// Outer workers run inner jobs on their own goroutines (1 implicit
	// worker each) plus whatever extra tokens they win; jobs in flight
	// can never exceed the outer width plus the shared allowance.
	if p := peak.Load(); p > 4+extra {
		t.Fatalf("peak concurrency %d exceeds bound %d", p, 4+extra)
	}
	if got := BudgetFrom(ctx).Extra(); got != extra {
		t.Fatalf("budget leaked: %d of %d tokens returned", got, extra)
	}
}

// TestBudgetReleasedOnEarlyReturn is the early-return leak regression:
// every path out of RunObs before its jobs finish — cancellation
// mid-feed, a panicking job — must hand its acquired tokens back, or a
// client whose nested repetition and shard fan-outs are cancelled
// repeatedly would bleed the process-wide allowance down to serial
// execution.
func TestBudgetReleasedOnEarlyReturn(t *testing.T) {
	const extra = 4
	b := NewBudget(extra)
	ctx := WithBudget(context.Background(), b)

	// Cancellation mid-feed: workers drain and return their tokens. The
	// first job to start triggers the cancel; every job blocks on the
	// context, so RunObs can only return via the cancellation path.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel()
	}()
	err := RunObs(cctx, 64, 8, nil, func(i int) {
		once.Do(func() { close(started) })
		<-cctx.Done()
	})
	if err == nil {
		t.Fatal("cancelled fan-out returned nil")
	}
	if got := b.Extra(); got != extra {
		t.Fatalf("budget leaked after cancellation: %d of %d tokens", got, extra)
	}

	// A panicking job: the pool shuts down cleanly and still releases.
	perr := RunObs(ctx, 16, 8, nil, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(perr, &pe) {
		t.Fatalf("got %v, want a *PanicError", perr)
	}
	if got := b.Extra(); got != extra {
		t.Fatalf("budget leaked after panic: %d of %d tokens", got, extra)
	}
}

func TestEnsureBudget(t *testing.T) {
	ctx := EnsureBudget(context.Background())
	b := BudgetFrom(ctx)
	if b == nil {
		t.Fatal("EnsureBudget installed nothing")
	}
	if again := EnsureBudget(ctx); BudgetFrom(again) != b {
		t.Fatal("EnsureBudget replaced an existing budget")
	}
	if BudgetFrom(context.Background()) != nil {
		t.Fatal("BudgetFrom invented a budget")
	}
	if BudgetFrom(nil) != nil { //nolint:staticcheck // nil-safety contract
		t.Fatal("BudgetFrom(nil) should be nil")
	}
}
