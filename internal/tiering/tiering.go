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
	"io"
	"math"
	"math/rand"
	"slices"

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
// (draws), and Int31n's mapping is reproduced with its rejection bound
// computed once and its remainder test done by a multiply.
type Profiler struct {
	space  *AddressSpace
	rate   int
	draws  draws
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
		draws:  newDraws(seed, rate),
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

// draws is the stream of Int31n(rate) == 0 decisions, made a block of
// lagLong stream values at a time: the loop that steps the source's
// recurrence to the next block also runs Int31n's test on each value it
// computes, and records the block's outcome for the requests to consume.
// A request's n touches take the next n accepted draws (redraws are
// skipped in stream order, as Int31n skips them), so every touch meets
// the same draw under the same test as with one Intn call per touch; only
// when the test runs differs.
type draws struct {
	// ring[i] is y[m+i] for the block's first stream index m. Bits above
	// 62 are not the stream's: the recurrence adds mod 2^64 and the test
	// reads bits 32–62 only.
	ring [lagLong]uint64
	// hits[j] counts the hits among the block's first j accepted draws,
	// for j ≤ accepted; a request's hits are a difference of two entries.
	hits [lagLong + 1]uint16
	// accepted is the block's draw count after Int31n's redraws; used is
	// how many of them requests have taken.
	accepted, used int
	// max is Int31n's rejection bound: a draw above it is redrawn, so
	// the accepted ones are uniform modulo rate. For a power-of-two rate
	// it is math.MaxInt32 (Int31n masks instead, which is the same test
	// with no redraw).
	max uint32
	// c is ⌈2^64/rate⌉ mod 2^64: a 32-bit v is a multiple of rate iff
	// v·c mod 2^64 ≤ c−1 (Lemire, Kaser & Kurz, "Faster remainder by
	// direct computation", 2019).
	c uint64
}

// newDraws takes and tests the first block of values of the source
// seeded with seed; the recurrence yields every later one.
func newDraws(seed int64, rate int) draws {
	src := rand.NewSource(seed)
	d := draws{
		max: 1<<31 - 1 - (1<<31)%uint32(rate),
		c:   math.MaxUint64/uint64(rate) + 1,
	}
	for i := range d.ring {
		d.ring[i] = uint64(src.Int63())
	}
	d.count()
	return d
}

// take consumes the decisions of n page touches and returns how many
// are observed.
func (d *draws) take(n int64) (hits int64) {
	for {
		if left := d.accepted - d.used; n <= int64(left) {
			end := d.used + int(n)
			hits += int64(d.hits[end] - d.hits[d.used])
			d.used = end
			return hits
		}
		hits += int64(d.hits[d.accepted] - d.hits[d.used])
		n -= int64(d.accepted - d.used)
		d.refill()
	}
}

// refill moves to the stream's next block and tests it. Stepping from
// y[m..] to y[m+lagLong..] is y[m+lagLong+i] = ring[i] +
// y[m+lagLong+i−lagShort], which is still in the old block for i <
// lagShort and already in the new one after. The test does not branch on
// a draw's outcome: the running hit count is stored at every draw and
// advanced by the outcome, so a rate that hits often mispredicts
// nothing. It first takes every draw as accepted; a block in which
// Int31n would redraw, which at most rates is rarely any, is counted
// again without the redrawn values.
func (d *draws) refill() {
	r, h := &d.ring, &d.hits
	max, c := d.max, d.c
	var hits uint16
	redrawn := false
	test := func(i int, x uint64) {
		v := uint32(x << 1 >> 33) // Int31: bits 32–62 of the Int63
		if v > max {
			redrawn = true
		}
		h[i] = hits
		hits += b2u16(uint64(v)*c < c) // v·c < c: v is a multiple of rate
	}
	for i := 0; i < lagShort; i++ {
		r[i] += r[i+lagLong-lagShort]
		test(i, r[i])
	}
	for i := lagShort; i < lagLong; i++ {
		r[i] += r[i-lagShort]
		test(i, r[i])
	}
	h[lagLong] = hits
	d.accepted, d.used = lagLong, 0
	if redrawn {
		d.count()
	}
}

// count tests the block in the ring as it stands, skipping the draws
// Int31n redraws in stream order.
func (d *draws) count() {
	acc, hits := 0, uint16(0)
	for _, x := range &d.ring {
		v := uint32(x << 1 >> 33)
		if v > d.max {
			continue // Int31n redraws
		}
		d.hits[acc] = hits
		hits += b2u16(uint64(v)*d.c < d.c)
		acc++
	}
	d.hits[acc] = hits
	d.accepted, d.used = acc, 0
}

// b2u16 is 1 for true and 0 for false, without a branch.
func b2u16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// Observe replays the workload's access pattern through the sampler:
// each request touches all pages of its record, and each touch is
// recorded with probability 1/rate. It returns the trace's read error
// (a streamed trace that fails to decode); the counts then cover only
// the ops before it. A second Observe continues the draws where the
// first stopped and adds to its counts.
func (p *Profiler) Observe(w *ycsb.Workload) error {
	frames, err := w.Frames()
	if err != nil {
		return err
	}
	pages, counts := p.space.pages, p.counts
	for {
		keys, _, _, err := frames.Next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var samples int64
		for _, k := range keys {
			hits := pages[k]
			if p.rate > 1 {
				hits = p.draws.take(hits)
			}
			counts[k] += hits
			samples += hits
		}
		p.samples += samples
	}
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
