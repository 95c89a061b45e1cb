package pool

import (
	"context"
	"runtime"
)

// Budget is a process-wide extra-worker allowance shared by nested
// fan-outs. Composed parallel layers — validation points × repeated
// runs × per-shard replay — each ask the pool for workers; without a
// shared cap the products multiply into far more goroutines than cores
// (points×repetitions×Shards of a validation on an 8-way box is hundreds), which the
// race detector amplifies into real slowdowns.
//
// The budget counts *extra* goroutines beyond the callers themselves: a
// caller entering RunObs is already running, so a serial fallback is
// always free and acquisition can be strictly non-blocking. Nested
// pools therefore never deadlock on the budget — a pool that gets no
// tokens degrades to the workers=1 serial path, which is the same code
// executing the same job order.
type Budget struct {
	tokens chan struct{}
}

// NewBudget allows up to `extra` concurrent extra workers across every
// pool sharing it (extra < 0 is treated as 0: all pools run serial).
func NewBudget(extra int) *Budget {
	if extra < 0 {
		extra = 0
	}
	b := &Budget{tokens: make(chan struct{}, extra)}
	for i := 0; i < extra; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// TryAcquire takes up to n tokens without blocking and returns how many
// it got. Callers must ReleaseN exactly that many.
func (b *Budget) TryAcquire(n int) int {
	got := 0
	for ; got < n; got++ {
		select {
		case <-b.tokens:
		default:
			return got
		}
	}
	return got
}

// ReleaseN returns n tokens to the budget.
func (b *Budget) ReleaseN(n int) {
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// Extra reports the budget's currently available extra-worker count
// (a snapshot; for tests and introspection).
func (b *Budget) Extra() int { return len(b.tokens) }

type budgetKeyType struct{}

var budgetKey budgetKeyType

// WithBudget returns a context carrying the budget; every RunObs under
// it sizes its worker pool from the shared allowance.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey, b)
}

// BudgetFrom returns the context's budget, or nil.
func BudgetFrom(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey).(*Budget)
	return b
}

// EnsureBudget returns ctx unchanged if it already carries a budget,
// else a child carrying a fresh GOMAXPROCS-sized one (the calling
// goroutine plus GOMAXPROCS−1 extra workers). Every fan-out entry point
// calls this, so the outermost layer installs the budget and every
// nested layer shares it.
func EnsureBudget(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if BudgetFrom(ctx) != nil {
		return ctx
	}
	return WithBudget(ctx, NewBudget(runtime.GOMAXPROCS(0)-1))
}
