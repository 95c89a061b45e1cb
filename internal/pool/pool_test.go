package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamp(t *testing.T) {
	if got := Workers(0, 8); got != runtime.GOMAXPROCS(0) && got != 8 {
		// Workers(0, n) is GOMAXPROCS clamped to n.
		if want := runtime.GOMAXPROCS(0); want < 8 && got != want {
			t.Fatalf("Workers(0,8) = %d, want min(GOMAXPROCS, 8)", got)
		}
	}
	if got := Workers(16, 4); got != 4 {
		t.Fatalf("Workers(16,4) = %d, want 4", got)
	}
	if got := Workers(-3, 4); got < 1 || got > 4 {
		t.Fatalf("Workers(-3,4) = %d out of [1,4]", got)
	}
	if got := Workers(2, 0); got != 1 {
		t.Fatalf("Workers(2,0) = %d, want 1", got)
	}
}

func TestRunCtxRunsAllJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		var hits [100]int32
		if err := RunCtx(context.Background(), len(hits), workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunCtxNilContext(t *testing.T) {
	ran := false
	if err := RunCtx(nil, 1, 1, func(int) { ran = true }); err != nil || !ran {
		t.Fatalf("nil ctx: err=%v ran=%v", err, ran)
	}
}

func TestRunCtxPanicBecomesTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := RunCtx(context.Background(), 8, workers, func(i int) {
			if i == 3 {
				panic("boom")
			}
		})
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		if workers == 1 && perr.Job != 3 {
			t.Fatalf("serial panic job = %d, want 3", perr.Job)
		}
		if perr.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", perr.Value)
		}
		if len(perr.Stack) == 0 || !strings.Contains(string(perr.Stack), "pool") {
			t.Fatalf("panic stack missing: %q", perr.Stack)
		}
		if !strings.Contains(perr.Error(), "panicked") {
			t.Fatalf("Error() = %q", perr.Error())
		}
	}
}

// TestRunCtxPanicDoesNotWedgeFeeder is the regression test for the
// deadlock the hardened pool exists to prevent: with far more jobs than
// workers, a panicking worker used to leave the feeder blocked on
// `jobs <-` forever. The drain path must let RunCtx return promptly.
func TestRunCtxPanicDoesNotWedgeFeeder(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunCtx(context.Background(), 10_000, 2, func(i int) {
			panic(i)
		})
	}()
	select {
	case err := <-done:
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx wedged after a worker panic")
	}
}

func TestRunCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := RunCtx(ctx, 1000, workers, func(i int) {
			if started.Add(1) == 2 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := started.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the sweep (%d jobs ran)", workers, n)
		}
	}
}

func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := RunCtx(ctx, 1<<30, 2, func(i int) { time.Sleep(100 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCtxPanicWinsOverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunCtx(ctx, 100, 2, func(i int) {
		cancel()
		panic("late")
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError to win over cancellation", err)
	}
}

func TestRunCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_ = RunCtx(context.Background(), 64, 8, func(j int) {
			if j == 13 {
				panic("leak check")
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestRunPreservesPanicSemantics(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Run swallowed the panic")
		}
		if _, ok := v.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", v)
		}
	}()
	Run(4, 2, func(i int) { panic("legacy") })
}

func TestGuard(t *testing.T) {
	if perr := Guard(7, func() {}); perr != nil {
		t.Fatalf("Guard of clean fn = %v", perr)
	}
	perr := Guard(7, func() { panic("g") })
	if perr == nil || perr.Job != 7 || perr.Value != "g" {
		t.Fatalf("Guard = %+v", perr)
	}
}

// Map returns results in job-index order for every worker count, hands
// each job a budgeted context, and reports the lowest failing job's
// error whichever job fails first on the clock; a pool error (a
// contained panic) comes back as is.
func TestMap(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		got, err := Map(context.Background(), 20, workers, nil, func(ctx context.Context, i int) (int, error) {
			if BudgetFrom(ctx) == nil {
				return 0, errors.New("job ran without a worker budget")
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}

		// An explicit budget grants every requested worker, so job 3
		// really waits for job 6 whatever GOMAXPROCS is.
		ctx := WithBudget(context.Background(), NewBudget(workers-1))
		release := make(chan struct{})
		_, err = Map(ctx, 8, workers, nil, func(_ context.Context, i int) (int, error) {
			switch i {
			case 6:
				close(release) // job 6 fails first when jobs overlap
				return 0, errors.New("job 6")
			case 3:
				if workers > 1 {
					<-release
				}
				return 0, errors.New("job 3")
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("workers=%d: err = %v, want the lowest failing job's", workers, err)
		}
	}
	_, err := Map(context.Background(), 4, 2, nil, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Job != 2 {
		t.Fatalf("err = %v, want job 2's *PanicError", err)
	}
}
