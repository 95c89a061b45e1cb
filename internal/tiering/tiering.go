// Package tiering implements a *generic* data-tiering profiler of the
// kind Mnemo's deployment mode 2b consumes (Fig 2b): an
// application-agnostic tool in the mold of OS-level and PEBS-based
// tiering systems that observes memory accesses at page granularity via
// hardware sampling, ranks pages by access density, and emits a
// DRAM-priority ordering.
//
// Unlike MnemoT's Pattern Engine — which computes exact per-key weights
// from the workload description alone — a generic profiler sees only
// sampled physical accesses. The reproduction models that faithfully:
// records are laid out in a virtual address space, each request touches
// the record's pages, and each page touch is observed with probability
// 1/rate. Low sampling rates are cheap but blur the hot/cold boundary;
// the ModeB experiment quantifies the resulting ordering-quality loss
// against MnemoT.
package tiering

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// PageSize is the profiling granularity (4 KiB pages, the x86 default
// that OS-level tiering systems track).
const PageSize = 4096

// AddressSpace lays a dataset's records out contiguously in a virtual
// address space so page-level observations can be attributed back to
// records.
type AddressSpace struct {
	first []int64 // first page of each record, index-aligned with the dataset
	pages []int64 // page count of each record
	total int64   // mapped pages
}

// NewAddressSpace builds the layout for a dataset, padding each record
// to page alignment the way slab-backed stores place large values.
func NewAddressSpace(ds ycsb.Dataset) *AddressSpace {
	s := &AddressSpace{
		first: make([]int64, len(ds.Records)),
		pages: make([]int64, len(ds.Records)),
	}
	for i, rec := range ds.Records {
		// Page-align each record: generic profilers cannot see two
		// records sharing a page apart, so stores avoid it for large
		// values.
		pages := (int64(rec.Size) + PageSize - 1) / PageSize
		if pages == 0 {
			pages = 1
		}
		s.first[i] = s.total
		s.pages[i] = pages
		s.total += pages
	}
	return s
}

// Pages reports the record's page span.
func (s *AddressSpace) Pages(record int) (first, count int64) {
	return s.first[record], s.pages[record]
}

// TotalPages reports the mapped page count.
func (s *AddressSpace) TotalPages() int64 { return s.total }

// Profiler observes sampled page accesses for a workload replay.
//
// A page touch is observed iff rand.New(rand.NewSource(seed)).Intn(rate)
// would return 0 — the draw the profiler has always made, and one the
// Go 1 compatibility promise freezes — but without an interface call or
// an integer division per draw: the source's stream is continued inline
// (lagged), and Int31n's mapping is reproduced with its rejection bound
// computed once and its remainder test done by a multiply.
type Profiler struct {
	space *AddressSpace
	rate  int
	rng   lagged
	// max is Int31n's rejection bound: a draw above it is redrawn, so
	// the accepted ones are uniform modulo rate. For a power-of-two rate
	// it is math.MaxInt32 (Int31n masks instead, which is the same test
	// with no redraw).
	max int32
	// c is ⌈2^64/rate⌉ mod 2^64: a 32-bit v is a multiple of rate iff
	// v·c mod 2^64 ≤ c−1 (Lemire, Kaser & Kurz, "Faster remainder by
	// direct computation", 2019).
	c      uint64
	counts []int64 // record → sampled page touches
	// samples is the total number of observations taken (the profiler's
	// data-collection cost is proportional to this).
	samples int64
}

// NewProfiler creates a sampling profiler. rate = 1 observes every page
// touch (Pin-like instrumentation); rate = 4000 approximates PEBS-style
// hardware sampling. It panics on a rate outside [1, math.MaxInt32].
func NewProfiler(space *AddressSpace, rate int, seed int64) *Profiler {
	if rate <= 0 || rate > math.MaxInt32 {
		panic(fmt.Sprintf("tiering: sampling rate %d outside [1, %d]", rate, math.MaxInt32))
	}
	return &Profiler{
		space:  space,
		rate:   rate,
		rng:    newLagged(rand.NewSource(seed)),
		max:    int32(1<<31 - 1 - (1<<31)%uint32(rate)),
		c:      math.MaxUint64/uint64(rate) + 1,
		counts: make([]int64, len(space.pages)),
	}
}

// Lags of math/rand's seeded source, an additive lagged Fibonacci
// generator: its Int63 stream obeys y[n] = y[n−607] + y[n−273] mod 2^63
// from n = 607 on.
const (
	lagLong  = 607
	lagShort = 273
)

// lagged continues a rand.Source's Int63 stream inline, a block of
// lagLong values at a time.
type lagged struct {
	// ring[k:] are the stream's next values; ring[i] is y[m+i] for the
	// block's first index m. Bits above 62 are not the stream's: the
	// recurrence adds mod 2^64 and no reader looks at them.
	ring [lagLong]uint64
	k    int
}

// newLagged takes the source's first block of values; the recurrence
// yields every later one.
func newLagged(src rand.Source) lagged {
	var g lagged
	for i := range g.ring {
		g.ring[i] = uint64(src.Int63())
	}
	return g
}

// next returns the stream's next values: at least one, at most n.
func (g *lagged) next(n int64) []uint64 {
	if g.k == lagLong {
		// Step the block from y[m..] to y[m+lagLong..]: y[m+lagLong+i] =
		// ring[i] + y[m+lagLong+i−lagShort], which is still in the old
		// block for i < lagShort and already in the new one after.
		r := &g.ring
		for i := 0; i < lagShort; i++ {
			r[i] += r[i+lagLong-lagShort]
		}
		for i := lagShort; i < lagLong; i++ {
			r[i] += r[i-lagShort]
		}
		g.k = 0
	}
	end := lagLong
	if n < int64(lagLong-g.k) {
		end = g.k + int(n)
	}
	out := g.ring[g.k:end]
	g.k = end
	return out
}

// observed draws the observation decisions of n page touches and
// returns how many are observed.
func (p *Profiler) observed(n int64) (hits int64) {
	max, c := p.max, p.c
	for n > 0 {
		for _, x := range p.rng.next(n) {
			v := int32(x << 1 >> 33) // Int31: bits 32–62 of the Int63
			if v > max {
				continue // Int31n redraws
			}
			n--
			if uint64(uint32(v))*c <= c-1 {
				hits++
			}
		}
	}
	return hits
}

// Observe replays the workload's access pattern through the sampler:
// each request touches all pages of its record, and each touch is
// recorded with probability 1/rate. It returns the trace's read error
// (a streamed trace that fails to decode); the counts then cover only
// the ops before it.
func (p *Profiler) Observe(w *ycsb.Workload) error {
	return w.ForEachOp(func(key int, _ kvstore.OpKind) {
		hits := p.space.pages[key]
		if p.rate > 1 {
			hits = p.observed(hits)
		}
		p.counts[key] += hits
		p.samples += hits
	})
}

// Samples reports how many page observations were collected.
func (p *Profiler) Samples() int64 { return p.samples }

// KeyOrdering returns record indices in descending access-density order
// (sampled touches per page), the DRAM allocation priority a generic
// tiering solution would hand to Mnemo. Unobserved records follow in
// dataset order.
func (p *Profiler) KeyOrdering() []int {
	density := make([]float64, len(p.counts))
	order := make([]int, 0, len(p.counts))
	for rec, c := range p.counts {
		if c > 0 {
			density[rec] = float64(c) / float64(p.space.pages[rec])
			order = append(order, rec)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if density[a] != density[b] {
			return cmp.Compare(density[b], density[a])
		}
		return cmp.Compare(a, b)
	})
	for rec, c := range p.counts {
		if c == 0 {
			order = append(order, rec)
		}
	}
	return order
}
