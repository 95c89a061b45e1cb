package registry

import (
	"cmp"
	"context"
	"fmt"
	"math"
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
// epoch without allocating. It is built once per run, for that run's
// records.
type moveScratch struct {
	size     []int64 // record sizes, indexed by record
	inTarget []bool
	moves    []server.Move
}

// newMoveScratch returns planning scratch for recs, whose sizes it copies
// into a dense column.
func newMoveScratch(recs []ycsb.Record) moveScratch {
	size := make([]int64, len(recs))
	for i, r := range recs {
		size[i] = int64(r.Size)
	}
	return moveScratch{size: size, inTarget: make([]bool, len(recs))}
}

// The budget sum masks sizes by tier: int64(Fast)-1 is all ones and
// int64(Slow)-1 is zero. These constants fail to compile otherwise.
const (
	_ uint = 0 - uint(memsim.Fast)
	_ uint = uint(memsim.Slow) - 1
	_ uint = 1 - uint(memsim.Slow)
)

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
func (s *moveScratch) planMoves(order []int, tiers []memsim.Tier) []server.Move {
	var budget int64
	for i, t := range tiers {
		budget += s.size[i] & (int64(t) - 1)
	}
	if budget == 0 {
		return nil
	}
	clear(s.inTarget)
	var used int64
	for _, idx := range order {
		size := s.size[idx]
		if used+size > budget {
			continue
		}
		used += size
		s.inTarget[idx] = true
	}
	s.moves = s.moves[:0]
	for i, t := range tiers {
		if in := s.inTarget[i]; in != (t == memsim.Fast) {
			to := memsim.Slow
			if in {
				to = memsim.Fast
			}
			s.moves = append(s.moves, server.Move{Index: i, To: to})
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
func (p adaptiveFreqPolicy) Order(_ context.Context, w *ycsb.Workload) (core.Ordering, error) {
	if p.decay <= 0 || p.decay > 1 {
		return core.Ordering{}, fmt.Errorf("adaptive-freq: decay %v outside (0,1]", p.decay)
	}
	stats, err := core.KeyStats(w)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("adaptive-freq: reading trace: %w", err)
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
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rankKey(0)
	}
	return &freqObserver{
		decay:     p.decay,
		score:     make([]float64, n),
		order:     identityOrder(n), // the ranking of all-zero scores
		keys:      keys,
		nextOrder: make([]int, n),
		nextKeys:  make([]uint64, n),
		plan:      newMoveScratch(w.Dataset.Records),
	}, nil
}

// freqObserver is one run's decayed-frequency state.
type freqObserver struct {
	decay float64
	score []float64
	// order is the ranking of score as of the last Observe and keys[k] is
	// rankKey(score[order[k]]); nextOrder and nextKeys are the buffers
	// rerank builds the next ranking in.
	order, nextOrder []int
	keys, nextKeys   []uint64
	// side is rerank's list of records to sort: the epoch's touched
	// records, which Observe collects in index order, and the untouched
	// ones the kept walk could not keep. buf and count are radixSort's
	// second buffer and bucket table.
	side, buf []rankEntry
	count     radixCounts
	plan      moveScratch
}

// rankKey maps a score to a key that sorts ascending where the score
// sorts descending. Scores start at +0, decay multiplies them by a
// factor in (0, 1] and epochs add non-negative counts, so a score is
// never negative, -0 or NaN; on such values the IEEE-754 bit pattern is
// monotone in the value, and its complement reverses the order. Equal
// scores get equal keys, so the index still breaks ties.
func rankKey(score float64) uint64 { return ^math.Float64bits(score) }

// rankEntry is a record index with its rank key.
type rankEntry struct {
	key uint64
	idx int
}

// Observe implements server.EpochObserver.
func (o *freqObserver) Observe(st server.EpochStats) []server.Move {
	touched := o.side[:0]
	for i := range o.score {
		r, w := st.Reads[i], st.Writes[i]
		o.score[i] *= o.decay
		o.score[i] += float64(r) + float64(w)
		if r|w != 0 {
			touched = append(touched, rankEntry{key: rankKey(o.score[i]), idx: i})
		}
	}
	o.side = touched
	o.rerank(st)
	return o.plan.planMoves(o.order, st.Tiers)
}

// rerank brings o.order from last epoch's ranking to the ranking of the
// updated scores at a cost proportional to what the epoch touched.
// Uniform decay preserves the relative order of records the epoch did
// not access, so one walk over the previous order keeps those in place,
// recomputing each one's decayed score from its carried key (for an
// untouched record the score is exactly that product). Each is checked
// against its kept predecessor, since decay can round two distinct
// scores into a tie the index must then break; the rare strays that
// fail the check join the touched records, which the decay pass
// collected in index order, on the side list, and it is put back in
// index order. A stable radix sort of it by key then yields (score
// desc, index asc), and a
// merge with the kept run, comparing carried keys, finishes the ranking.
// (score desc, index asc) is a strict total order, so the sorted
// permutation is unique and the result equals scoreOrder(o.score) for
// any input; TestRerankMatchesFullSort is the oracle.
func (o *freqObserver) rerank(st server.EpochStats) {
	keptOrder, keptKeys := o.nextOrder[:0], o.nextKeys[:0]
	side, touched := o.side, len(o.side)
	for k, idx := range o.order {
		if st.Reads[idx]|st.Writes[idx] != 0 {
			continue
		}
		key := rankKey(math.Float64frombits(^o.keys[k]) * o.decay)
		if n := len(keptKeys); n == 0 || keptKeys[n-1] < key || keptKeys[n-1] == key && keptOrder[n-1] < idx {
			keptOrder = append(keptOrder, idx)
			keptKeys = append(keptKeys, key)
		} else {
			side = append(side, rankEntry{key: key, idx: idx})
		}
	}
	o.side = side
	if len(side) > touched { // rare: only decay-rounded ties stray
		slices.SortFunc(side, func(a, b rankEntry) int { return cmp.Compare(a.idx, b.idx) })
	}
	if cap(o.buf) < len(side) {
		o.buf = make([]rankEntry, cap(side))
	}
	side = radixSort(side, o.buf[:len(side)], &o.count)
	// Merge from the back into the next buffers, whose fronts already
	// hold the kept run: the write position never falls below the unread
	// part of it.
	n := len(o.order)
	outOrder, outKeys := o.nextOrder[:n], o.nextKeys[:n]
	i, j := len(keptKeys)-1, len(side)-1
	for w := n - 1; j >= 0; w-- {
		if e := side[j]; i >= 0 && (keptKeys[i] > e.key || keptKeys[i] == e.key && keptOrder[i] > e.idx) {
			outOrder[w], outKeys[w] = keptOrder[i], keptKeys[i]
			i--
		} else {
			outOrder[w], outKeys[w] = e.idx, e.key
			j--
		}
	}
	o.order, o.nextOrder = outOrder, o.order
	o.keys, o.nextKeys = outKeys, o.keys
}

// radixBits is radixSort's digit width.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixCounts is radixSort's per-digit bucket table.
type radixCounts [1 << radixBits]int32

// radixSort stably sorts a by key, least significant digit first, with
// buf (same length) as the other half of each pass. A digit on which
// every key agrees would move nothing: one pass finds those (the bits
// where the keys' AND and OR differ) and they are skipped. The result is
// a or buf, whichever the last pass wrote.
func radixSort(a, buf []rankEntry, count *radixCounts) []rankEntry {
	and, or := ^uint64(0), uint64(0)
	for _, e := range a {
		and &= e.key
		or |= e.key
	}
	for shift := 0; shift < 64; shift += radixBits {
		if (and^or)>>shift&radixMask == 0 {
			continue
		}
		clear(count[:])
		for _, e := range a {
			count[e.key>>shift&radixMask]++
		}
		var sum int32
		for b, v := range count {
			count[b] = sum
			sum += v
		}
		for _, e := range a {
			b := e.key >> shift & radixMask
			buf[count[b]] = e
			count[b]++
		}
		a, buf = buf, a
	}
	return a
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
	return &wrapperObserver{inner: p.inner, w: w, plan: newMoveScratch(w.Dataset.Records)}, nil
}

// wrapperObserver re-runs the inner policy on per-epoch observations.
type wrapperObserver struct {
	inner core.TieringPolicy
	w     *ycsb.Workload
	plan  moveScratch
}

// Observe implements server.EpochObserver. The synthetic workload it
// hands the inner policy carries the real dataset with a packed trace
// (ycsb.FromPacked) expanded from the epoch's access counts (reads then
// writes, per record, in index order) — frequency-and-size information
// is preserved exactly; intra-epoch request order, which the epoch
// counters do not keep, is not. Policies whose static order depends on
// arrival order (first touch) see an index-ordered epoch.
func (o *wrapperObserver) Observe(st server.EpochStats) []server.Move {
	keys := make([]uint32, 0, st.Ops)
	kinds := make([]uint8, 0, st.Ops)
	for i := range st.Reads {
		for range st.Reads[i] {
			keys = append(keys, uint32(i))
			kinds = append(kinds, uint8(kvstore.Read))
		}
		for range st.Writes[i] {
			keys = append(keys, uint32(i))
			kinds = append(kinds, uint8(kvstore.Write))
		}
	}
	spec := o.w.Spec
	spec.Requests = len(keys)
	synth := ycsb.FromPacked(spec, o.w.Dataset, keys, kinds)
	ord, err := o.inner.Order(context.Background(), synth)
	if err != nil {
		return nil
	}
	order := make([]int, len(ord.Keys))
	for i, k := range ord.Keys {
		order[i] = k.Index
	}
	return o.plan.planMoves(order, st.Tiers)
}
