package registry

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"mnemo/internal/core"
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// Adaptive policies (DESIGN.md §15): core.EpochPolicy implementations
// whose Order is the static degenerate case and whose Begin opens an
// online-migration run. All mutable per-run state lives on the observer
// Begin returns — never on the policy value — so one policy instance can
// serve many concurrent runs (the registry freshness contract).

// moveScratch holds planMoves' working buffers so an observer plans every
// epoch without allocating; the zero value is ready to use.
type moveScratch struct {
	inTarget []bool
	moves    []server.Move
}

// planMoves turns a priority order into the migrations that reshape the
// current placement toward it. The FastMem byte budget is what the
// current placement already spends — the sum of fast-resident record
// sizes — so migration swaps records without growing the fast tier's
// footprint: the cost model's C_fast is preserved, only its contents
// change. The target set packs the priority order greedily (records that
// do not fit are skipped, not cut off), then promotes target records now
// slow and demotes fast records outside the target. An all-fast or
// all-slow placement has nothing to swap and yields no moves. The
// returned slice is the scratch's own and is overwritten by the next
// call.
func (s *moveScratch) planMoves(order []int, recs []ycsb.Record, tiers []memsim.Tier) []server.Move {
	var budget int64
	for i, t := range tiers {
		if t == memsim.Fast {
			budget += int64(recs[i].Size)
		}
	}
	if budget == 0 {
		return nil
	}
	if len(s.inTarget) != len(recs) {
		s.inTarget = make([]bool, len(recs))
	}
	clear(s.inTarget)
	var used int64
	for _, idx := range order {
		size := int64(recs[idx].Size)
		if used+size > budget {
			continue
		}
		used += size
		s.inTarget[idx] = true
	}
	s.moves = s.moves[:0]
	for i, t := range tiers {
		switch {
		case s.inTarget[i] && t != memsim.Fast:
			s.moves = append(s.moves, server.Move{Index: i, To: memsim.Fast})
		case !s.inTarget[i] && t == memsim.Fast:
			s.moves = append(s.moves, server.Move{Index: i, To: memsim.Slow})
		}
	}
	return s.moves
}

// identityOrder returns the record indices 0 … n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// scoreCompare is the strict total order every frequency policy here
// ranks by: descending score, index ascending on ties.
func scoreCompare(score []float64) func(a, b int) int {
	return func(a, b int) int {
		if score[a] != score[b] {
			return cmp.Compare(score[b], score[a])
		}
		return cmp.Compare(a, b)
	}
}

// scoreOrder returns record indices sorted by scoreCompare.
func scoreOrder(score []float64) []int {
	order := identityOrder(len(score))
	slices.SortFunc(order, scoreCompare(score))
	return order
}

// AdaptiveFreq builds the HybridTier-style online decayed-frequency
// policy: each epoch every record's score decays by the retention factor
// and gains its epoch accesses, and the placement is reshaped toward the
// highest-scoring records. Statically (Order) it degenerates to plain
// whole-trace access frequency. decay must be in (0, 1].
func AdaptiveFreq(decay float64) core.EpochPolicy {
	return adaptiveFreqPolicy{decay: decay}
}

type adaptiveFreqPolicy struct {
	// name is the parameter-qualified instance name; empty for the
	// default decay.
	name  string
	decay float64
}

// Name implements core.TieringPolicy.
func (p adaptiveFreqPolicy) Name() string {
	if p.name == "" {
		return "adaptive-freq"
	}
	return p.name
}

// Order implements core.TieringPolicy — the static degenerate case:
// whole-trace access frequency, descending.
func (p adaptiveFreqPolicy) Order(ctx context.Context, w *ycsb.Workload) (core.Ordering, error) {
	if p.decay <= 0 || p.decay > 1 {
		return core.Ordering{}, fmt.Errorf("adaptive-freq: decay %v outside (0,1]", p.decay)
	}
	stats, err := keyStats(ctx, w)
	if err != nil {
		return core.Ordering{}, err
	}
	score := make([]float64, len(stats))
	for i, k := range stats {
		score[i] = float64(k.Accesses())
	}
	return orderingOf(p.Name(), stats, scoreOrder(score)), nil
}

// Begin implements server.EpochSource.
func (p adaptiveFreqPolicy) Begin(w *ycsb.Workload) (server.EpochObserver, error) {
	if p.decay <= 0 || p.decay > 1 {
		return nil, fmt.Errorf("adaptive-freq: decay %v outside (0,1]", p.decay)
	}
	n := len(w.Dataset.Records)
	return &freqObserver{
		decay: p.decay,
		recs:  w.Dataset.Records,
		score: make([]float64, n),
		order: identityOrder(n), // the ranking of all-zero scores
		next:  make([]int, n),
	}, nil
}

// freqObserver is one run's decayed-frequency state.
type freqObserver struct {
	decay float64
	recs  []ycsb.Record
	score []float64
	// order is the ranking of score as of the last Observe; next and
	// side are rerank's buffers.
	order, next, side []int
	plan              moveScratch
}

// Observe implements server.EpochObserver.
func (o *freqObserver) Observe(st server.EpochStats) []server.Move {
	for i := range o.score {
		o.score[i] *= o.decay
		o.score[i] += float64(st.Reads[i]) + float64(st.Writes[i])
	}
	o.rerank(st)
	return o.plan.planMoves(o.order, o.recs, st.Tiers)
}

// rerank brings o.order from last epoch's ranking to the ranking of the
// updated scores at a cost proportional to what the epoch changed.
// Uniform decay preserves the relative order of records the epoch did
// not access, so one walk over the previous order keeps those in place —
// checking each against its kept predecessor, since decay can round two
// distinct scores into a tie the index must then break — and sends every
// accessed or out-of-place record to the side list. The kept run is
// sorted by construction; the side list is sorted and the two are
// merged. scoreCompare is a strict total order, so the sorted
// permutation is unique and the result equals scoreOrder(o.score) for
// any input; the worst case is a full sort of the side list.
func (o *freqObserver) rerank(st server.EpochStats) {
	compare := scoreCompare(o.score)
	kept, side := o.next[:0], o.side[:0]
	for _, idx := range o.order {
		untouched := st.Reads[idx] == 0 && st.Writes[idx] == 0
		if untouched && (len(kept) == 0 || compare(kept[len(kept)-1], idx) < 0) {
			kept = append(kept, idx)
		} else {
			side = append(side, idx)
		}
	}
	slices.SortFunc(side, compare)
	// Merge from the back into next, whose front already holds kept: the
	// write position never falls below the unread part of kept.
	out := o.next[:len(o.order)]
	i, j := len(kept)-1, len(side)-1
	for w := len(out) - 1; j >= 0; w-- {
		if i >= 0 && compare(kept[i], side[j]) > 0 {
			out[w] = kept[i]
			i--
		} else {
			out[w] = side[j]
			j--
		}
	}
	o.order, o.next, o.side = out, o.order, side
}

// Adaptive wraps any static tiering policy as an epoch policy: each
// epoch the inner policy's Order is re-run on a synthetic workload
// assembled from the epoch's observed access counts, and the placement
// is reshaped toward the resulting ordering. Statically it is exactly
// the inner policy. An inner Order failure mid-run keeps the current
// placement (migration is an optimization; a run never fails for want
// of one).
func Adaptive(inner core.TieringPolicy) core.EpochPolicy {
	return adaptiveWrapper{inner: inner}
}

type adaptiveWrapper struct{ inner core.TieringPolicy }

// Name implements core.TieringPolicy.
func (p adaptiveWrapper) Name() string { return "adaptive-" + p.inner.Name() }

// Order implements core.TieringPolicy by delegating to the inner policy,
// renamed so Session caches and reports keep the two distinct.
func (p adaptiveWrapper) Order(ctx context.Context, w *ycsb.Workload) (core.Ordering, error) {
	ord, err := p.inner.Order(ctx, w)
	if err != nil {
		return core.Ordering{}, err
	}
	ord.Name = p.Name()
	return ord, nil
}

// Begin implements server.EpochSource.
func (p adaptiveWrapper) Begin(w *ycsb.Workload) (server.EpochObserver, error) {
	return &wrapperObserver{inner: p.inner, w: w}, nil
}

// wrapperObserver re-runs the inner policy on per-epoch observations.
type wrapperObserver struct {
	inner core.TieringPolicy
	w     *ycsb.Workload
	plan  moveScratch
}

// Observe implements server.EpochObserver. The synthetic workload it
// hands the inner policy carries the real dataset with a trace expanded
// from the epoch's access counts (reads then writes, per record, in
// index order) — frequency-and-size information is preserved exactly;
// intra-epoch request order, which the epoch counters do not keep, is
// not. Policies whose static order depends on arrival order (first
// touch) see an index-ordered epoch.
func (o *wrapperObserver) Observe(st server.EpochStats) []server.Move {
	ops := make([]ycsb.Op, 0, st.Ops)
	for i := range st.Reads {
		for r := int32(0); r < st.Reads[i]; r++ {
			ops = append(ops, ycsb.Op{Key: i, Kind: kvstore.Read})
		}
		for w := int32(0); w < st.Writes[i]; w++ {
			ops = append(ops, ycsb.Op{Key: i, Kind: kvstore.Write})
		}
	}
	spec := o.w.Spec
	spec.Requests = len(ops)
	synth := &ycsb.Workload{Spec: spec, Dataset: o.w.Dataset, Ops: ops}
	ord, err := o.inner.Order(context.Background(), synth)
	if err != nil {
		return nil
	}
	order := make([]int, len(ord.Keys))
	for i, k := range ord.Keys {
		order[i] = k.Index
	}
	return o.plan.planMoves(order, o.w.Dataset.Records, st.Tiers)
}
