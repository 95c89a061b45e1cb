package registry

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mnemo/internal/core"
	"mnemo/internal/knapsack"
	"mnemo/internal/kvstore"
	"mnemo/internal/tiering"
	"mnemo/internal/ycsb"
)

// Defaults for the parameterized policies, used by the registry entries.
const (
	// DefaultSampleRate approximates PEBS-style hardware sampling (one
	// observation per 4000 page touches), the rate the ModeB experiment
	// centres on.
	DefaultSampleRate = 4000
	// DefaultEpochs / DefaultDecay are the decayed-frequency policy's
	// window count and per-epoch retention factor.
	DefaultEpochs = 8
	DefaultDecay  = 0.5
)

// Tunable surfaces of the parameterized policies (Entry.Params). Bounds
// are the domains the policies themselves validate; defaults match the
// parameterless registry constructors, so a default vector resolves to
// the plain policy.
var (
	decayParam = Param{Name: "decay", Min: 0.01, Max: 1, Default: DefaultDecay, Log: true,
		Description: "per-epoch score retention factor (1 = plain frequency)"}
	freqDecaySpace = ParamSpace{
		decayParam,
		{Name: "epochs", Min: 1, Max: 64, Default: DefaultEpochs, Integer: true,
			Description: "trace windows the decay is applied between"},
	}
	pageSampleSpace = ParamSpace{
		{Name: "rate", Min: 1, Max: 1 << 20, Default: DefaultSampleRate, Integer: true, Log: true,
			Description: "page touches per sampled observation (PEBS-style)"},
	}
	knapsackSpace = ParamSpace{
		{Name: "anchor", Min: 0, Max: 1, Default: 0,
			Description: "extra exact-DP rung at this fraction of the dataset (0 = off)"},
		{Name: "rungs", Min: 1, Max: 6, Default: 3, Integer: true,
			Description: "halving capacity ladder depth: rungs at 1/2^n … 1/2 of the dataset"},
	}
	adaptiveFreqSpace = ParamSpace{decayParam}
)

// orderingOf assembles an Ordering from record indices in priority order,
// copying the entries out of the workload's read-only stats
// (core.KeyStats).
func orderingOf(name string, stats []core.KeyStat, order []int) core.Ordering {
	keys := make([]core.KeyStat, len(order))
	for i, idx := range order {
		keys[i] = stats[idx]
	}
	return core.Ordering{Name: name, Keys: keys}
}

// Tahoe orders keys by raw access frequency, descending — the
// structure-heat heuristic of Tahoe-class tiering systems, which track
// how often an object is reached without normalizing by its size. On
// workloads with uniform record sizes it coincides with MnemoT's density
// order; with mixed sizes it over-prioritizes hot large objects, which
// is exactly the gap the comparison experiments surface.
var Tahoe core.TieringPolicy = tahoePolicy{}

type tahoePolicy struct{}

func (tahoePolicy) Name() string { return "tahoe" }

func (tahoePolicy) Order(_ context.Context, w *ycsb.Workload) (core.Ordering, error) {
	stats, err := core.KeyStats(w)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("tahoe: reading trace: %w", err)
	}
	order := identityOrder(len(stats))
	slices.SortFunc(order, func(a, b int) int {
		if fa, fb := stats[a].Accesses(), stats[b].Accesses(); fa != fb {
			return cmp.Compare(fb, fa)
		}
		return cmp.Compare(a, b)
	})
	return orderingOf("tahoe", stats, order), nil
}

// FreqDecay builds the HybridTier-style decayed-frequency policy: the
// trace is split into epochs, every key's score is multiplied by decay at
// each epoch boundary and incremented per access, so recent activity
// dominates and long-cold keys age out of the FastMem front. epochs must
// be positive and decay in (0, 1]; decay = 1 degrades to plain frequency
// counting over the whole trace.
func FreqDecay(epochs int, decay float64) core.TieringPolicy {
	return freqDecayPolicy{epochs: epochs, decay: decay}
}

type freqDecayPolicy struct {
	// name is the parameter-qualified instance name; empty for the
	// default-constructed policy.
	name   string
	epochs int
	decay  float64
}

func (p freqDecayPolicy) Name() string {
	if p.name == "" {
		return "freqdecay"
	}
	return p.name
}

func (p freqDecayPolicy) Order(_ context.Context, w *ycsb.Workload) (core.Ordering, error) {
	if p.epochs <= 0 {
		return core.Ordering{}, fmt.Errorf("freqdecay: epochs %d must be positive", p.epochs)
	}
	if p.decay <= 0 || p.decay > 1 {
		return core.Ordering{}, fmt.Errorf("freqdecay: decay %v outside (0,1]", p.decay)
	}
	stats, err := core.KeyStats(w)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("freqdecay: reading trace: %w", err)
	}
	score := make([]float64, len(stats))
	per := (w.RequestCount() + p.epochs - 1) / p.epochs
	if per == 0 {
		per = 1
	}
	idx := 0
	if err := w.ForEachOp(func(key int, _ kvstore.OpKind) {
		if idx > 0 && idx%per == 0 {
			for i := range score {
				score[i] *= p.decay
			}
		}
		score[key]++
		idx++
	}); err != nil {
		return core.Ordering{}, fmt.Errorf("freqdecay: reading trace: %w", err)
	}
	return orderingOf(p.Name(), stats, scoreOrder(score)), nil
}

// PageSample wraps the generic page-granularity sampling profiler
// (internal/tiering) as a policy: the workload is replayed through a
// simulated address space, page touches are observed with probability
// 1/rate, and page heat is aggregated back to a key ordering — the
// deployment-mode-2b pipeline where an existing tiering solution feeds
// Mnemo. The policy is stateful: Samples reports the observation count
// of the last Order call, the profiler's data-collection cost.
//
// The default rate profiles as "pagesample"; other rates get a
// rate-qualified name ("pagesample-1", "pagesample-16000", …) so that
// several rates can be compared within one Session without their cached
// artifacts colliding.
func PageSample(rate int, seed int64) *PageSamplePolicy {
	name := "pagesample"
	if rate != DefaultSampleRate {
		name = fmt.Sprintf("pagesample-%d", rate)
	}
	return &PageSamplePolicy{name: name, rate: rate, seed: seed}
}

// PageSamplePolicy is the stateful page-sampling policy; construct with
// PageSample.
type PageSamplePolicy struct {
	name string
	rate int
	seed int64

	mu      sync.Mutex
	samples int64
}

// Name implements core.TieringPolicy.
func (p *PageSamplePolicy) Name() string { return p.name }

// Samples reports how many page observations the last Order collected.
func (p *PageSamplePolicy) Samples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}

// Order implements core.TieringPolicy by profiling the replay and
// translating the resulting record priority into an Ordering.
func (p *PageSamplePolicy) Order(_ context.Context, w *ycsb.Workload) (core.Ordering, error) {
	if p.rate <= 0 || p.rate > math.MaxInt32 {
		return core.Ordering{}, fmt.Errorf("pagesample: sampling rate %d outside [1, %d]", p.rate, math.MaxInt32)
	}
	prof := tiering.NewProfiler(tiering.NewAddressSpace(w.Dataset), p.rate, p.seed)
	if err := prof.Observe(w); err != nil {
		return core.Ordering{}, fmt.Errorf("pagesample: reading trace: %w", err)
	}
	p.mu.Lock()
	p.samples = prof.Samples()
	p.mu.Unlock()

	stats, err := core.KeyStats(w)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("pagesample: reading trace: %w", err)
	}
	return orderingOf(p.name, stats, prof.KeyOrdering()), nil
}

// KnapsackExact orders keys by solving the 0/1 knapsack exactly at a
// ladder of FastMem capacities (1/8, 1/4, 1/2 of the dataset by
// default): a key's priority is the smallest capacity whose optimal
// packing includes it, with MnemoT's density order inside each rung.
// Weights are coarsened to page units — doubling the unit until the DP
// table fits — the same trick the knapsack ablation uses, so the policy
// stays usable on full-size workloads.
var KnapsackExact core.TieringPolicy = knapsackPolicy{}

// knapsackPolicy generalizes the ladder: rungs halving capacities
// (1/2^rungs … 1/2 of the dataset) plus an optional anchor rung at an
// arbitrary capacity fraction. The anchor is the tunable that lets the
// policy beat pure density ordering: an exact DP solved at the fraction
// the advisor will actually cut at exploits the knapsack integrality
// gap that the greedy density order leaves on the table.
type knapsackPolicy struct {
	// name is the parameter-qualified instance name; empty for the
	// default ladder.
	name string
	// rungs is the halving-ladder depth (0 = the default 3).
	rungs int
	// anchor, in (0,1], inserts an extra exact rung at that fraction of
	// the dataset's page units; 0 disables it.
	anchor float64
}

func (p knapsackPolicy) Name() string {
	if p.name == "" {
		return "knapsack"
	}
	return p.name
}

// dpBudget caps the DP table at n·capacity cells; capacities beyond it
// are coarsened.
const dpBudget = 20_000_000

// DPBudgetError is the knapsack policy's error for a dataset with more
// records than its DP table has cells: not even capacity 0 fits Budget.
type DPBudgetError struct {
	Records int
	Budget  int64
}

func (e *DPBudgetError) Error() string {
	return fmt.Sprintf("knapsack: %d records exceed the DP budget of %d table cells", e.Records, e.Budget)
}

// knapsackBound is the largest scaled capacity whose DP table over n
// items fits dpBudget.
func knapsackBound(n int) (int64, error) {
	maxCap := dpBudget/int64(n+1) - 1
	if maxCap < 0 {
		return 0, &DPBudgetError{Records: n, Budget: dpBudget}
	}
	return maxCap, nil
}

// knapsackTableKey keys a weight coarsening's DP table in the
// workload's Derived memo.
type knapsackTableKey struct{ unit int64 }

// knapsackTableSlot is the workload's DP table for one coarsening, nil
// until the first Order solves it.
type knapsackTableSlot struct {
	mu    sync.Mutex
	table *knapsack.Table
}

// knapsackTable returns w's DP table over items coarsened by unit,
// solved at least up to capacity need. The items, and so the table, are
// the workload's alone — no parameter enters them — so every knapsack
// instance ordering w reads one table per unit for as long as w lives.
// The first caller for a unit solves only its own need, so a one-shot
// Order costs no more than it uses; a later caller that needs more
// re-solves once at ceiling, the largest scaled capacity any ladder or
// anchor reaches with this unit, so no third solve follows. A table
// answers every capacity up to its own, so a reader still holding the
// replaced one stays correct.
func knapsackTable(w *ycsb.Workload, unit int64, items []knapsack.Item, need, ceiling int64) *knapsack.Table {
	v, _ := w.Derived(knapsackTableKey{unit}, func() (any, error) { return new(knapsackTableSlot), nil })
	slot := v.(*knapsackTableSlot)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.table != nil && slot.table.Capacity() >= need {
		return slot.table
	}
	if slot.table != nil {
		need = ceiling
	}
	scaled := items
	if unit > 1 {
		scaled = make([]knapsack.Item, len(items))
		for i, it := range items {
			scaled[i] = knapsack.Item{Weight: (it.Weight + unit - 1) / unit, Profit: it.Profit}
		}
	}
	slot.table = knapsack.Solve(scaled, need)
	return slot.table
}

// capacityLadder builds the ascending capacity rungs in page units.
func (p knapsackPolicy) capacityLadder(totalUnits int64) []int64 {
	rungs := p.rungs
	if rungs == 0 {
		rungs = 3
	}
	caps := make([]int64, 0, rungs+1)
	for den := int64(1) << uint(rungs); den >= 2; den /= 2 {
		caps = append(caps, totalUnits/den)
	}
	if p.anchor > 0 {
		anchorCap := int64(p.anchor * float64(totalUnits))
		i := sort.Search(len(caps), func(i int) bool { return caps[i] >= anchorCap })
		if i == len(caps) || caps[i] != anchorCap {
			caps = append(caps, 0)
			copy(caps[i+1:], caps[i:])
			caps[i] = anchorCap
		}
	}
	// Drop degenerate rungs (tiny datasets can floor a fraction to 0).
	out := caps[:0]
	for _, c := range caps {
		if c > 0 {
			out = append(out, c)
		}
	}
	return out
}

func (p knapsackPolicy) Order(ctx context.Context, w *ycsb.Workload) (core.Ordering, error) {
	stats, err := core.KeyStats(w)
	if err != nil {
		return core.Ordering{}, fmt.Errorf("knapsack: reading trace: %w", err)
	}
	maxCap, err := knapsackBound(len(stats))
	if err != nil {
		return core.Ordering{}, err
	}
	const pageUnit = int64(4096)
	items := make([]knapsack.Item, len(stats))
	var totalUnits int64
	for i, k := range stats {
		units := (int64(k.Size) + pageUnit - 1) / pageUnit
		if units == 0 {
			units = 1
		}
		items[i] = knapsack.Item{Weight: units, Profit: float64(k.Accesses())}
		totalUnits += units
	}
	capacities := p.capacityLadder(totalUnits)
	tiers := make([]int, len(stats))
	for i := range tiers {
		tiers[i] = len(capacities) + 1 // never optimal at any rung
	}
	// coarsening is the factor weights are scaled down by so a rung's DP
	// table fits the budget; it is monotone in the capacity.
	coarsening := func(capUnits int64) int64 {
		unit := int64(1)
		for capUnits/unit > maxCap {
			unit *= 2
		}
		return unit
	}
	// Consecutive rungs with the same coarsening share one DP table
	// (knapsack.Table), which lives on the workload (knapsackTable).
	for lo := 0; lo < len(capacities); {
		if err := ctx.Err(); err != nil {
			return core.Ordering{}, err
		}
		unit := coarsening(capacities[lo])
		hi := lo + 1
		for hi < len(capacities) && coarsening(capacities[hi]) == unit {
			hi++
		}
		table := knapsackTable(w, unit, items, capacities[hi-1]/unit, min(totalUnits/unit, maxCap))
		for tier := lo; tier < hi; tier++ {
			picked, _ := table.Picked(capacities[tier] / unit)
			for i, in := range picked {
				if in && tier < tiers[i] {
					tiers[i] = tier
				}
			}
		}
		lo = hi
	}
	// Keys outside every rung's optimal packing are approximated by
	// density to keep the DP ladder short.
	density := func(i int) float64 {
		if items[i].Weight <= 0 {
			return items[i].Profit
		}
		return items[i].Profit / float64(items[i].Weight)
	}
	order := identityOrder(len(stats))
	slices.SortFunc(order, func(a, b int) int {
		if tiers[a] != tiers[b] {
			return cmp.Compare(tiers[a], tiers[b])
		}
		if da, db := density(a), density(b); da != db {
			return cmp.Compare(db, da)
		}
		return cmp.Compare(a, b)
	})
	return orderingOf(p.Name(), stats, order), nil
}
