// Package ycsb generates the paper's custom YCSB workloads (Table III):
// fixed key spaces with per-key record sizes drawn from the Fig 4
// distributions, and request traces drawn from the Fig 3 key
// distributions with configurable read:write mixes.
//
// A generated Workload doubles as Mnemo's "workload descriptor": the
// paper's tool consumes exactly a key sequence with request types and a
// description of key-value sizes, which is what Trace/Dataset carry.
package ycsb

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"mnemo/internal/dist"
	"mnemo/internal/kvstore"
)

// Defaults from Table III: "Number of keys is 10,000 and number of
// requests 100,000."
const (
	DefaultKeys     = 10_000
	DefaultRequests = 100_000
)

// DistKind selects a request distribution.
type DistKind int

// Supported request distributions (Fig 3), plus the non-stationary
// drift distributions used to evaluate adaptive tiering.
const (
	Uniform DistKind = iota
	Zipfian
	ScrambledZipfian
	Hotspot
	Latest
	HotSetDrift
	PhaseChange
)

// String implements fmt.Stringer.
func (k DistKind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case ScrambledZipfian:
		return "scrambled_zipfian"
	case Hotspot:
		return "hotspot"
	case Latest:
		return "latest"
	case HotSetDrift:
		return "hot_set_drift"
	case PhaseChange:
		return "phase_change"
	default:
		return fmt.Sprintf("DistKind(%d)", int(k))
	}
}

// DistSpec parameterizes a request distribution.
type DistSpec struct {
	Kind DistKind
	// Theta is the zipfian skew (Zipfian/ScrambledZipfian); 0 means the
	// YCSB default of 0.99.
	Theta float64
	// HotSetFraction and HotOpnFraction parameterize Hotspot and
	// HotSetDrift.
	HotSetFraction, HotOpnFraction float64
	// Phases is the number of distinct popularity regimes for
	// PhaseChange; 0 means the default of 4.
	Phases int
}

// DefaultPhases is the phase count used when DistSpec.Phases is zero.
const DefaultPhases = 4

// New builds the chooser for a key space of the given size and a trace of
// the given length.
func (d DistSpec) New(keys, requests int) dist.KeyChooser {
	theta := d.Theta
	if theta == 0 {
		theta = dist.ZipfianTheta
	}
	switch d.Kind {
	case Uniform:
		return dist.NewUniform(keys)
	case Zipfian:
		return dist.NewZipfian(keys, theta)
	case ScrambledZipfian:
		return dist.NewScrambledZipfian(keys, theta)
	case Hotspot:
		return dist.NewHotspot(keys, d.HotSetFraction, d.HotOpnFraction)
	case Latest:
		return dist.NewLatest(keys, requests)
	case HotSetDrift:
		return dist.NewHotSetDrift(keys, requests, d.HotSetFraction, d.HotOpnFraction)
	case PhaseChange:
		phases := d.Phases
		if phases == 0 {
			phases = DefaultPhases
		}
		return dist.NewPhaseChange(keys, requests, phases)
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution kind %d", int(d.Kind)))
	}
}

// SizeKind selects a record-size distribution (Fig 4).
type SizeKind int

// Supported record-size models.
const (
	SizeThumbnail SizeKind = iota
	SizeTextPost
	SizePhotoCaption
	SizeTrendingPreview
	SizeFixed1KB
	SizeFixed10KB
	SizeFixed100KB
)

// String implements fmt.Stringer.
func (k SizeKind) String() string {
	switch k {
	case SizeThumbnail:
		return "thumbnail"
	case SizeTextPost:
		return "text_post"
	case SizePhotoCaption:
		return "photo_caption"
	case SizeTrendingPreview:
		return "trending_preview_mix"
	case SizeFixed1KB:
		return "fixed_1kb"
	case SizeFixed10KB:
		return "fixed_10kb"
	case SizeFixed100KB:
		return "fixed_100kb"
	default:
		return fmt.Sprintf("SizeKind(%d)", int(k))
	}
}

// New builds the size distribution.
func (k SizeKind) New() dist.SizeDist {
	switch k {
	case SizeThumbnail:
		return dist.Thumbnail()
	case SizeTextPost:
		return dist.TextPost()
	case SizePhotoCaption:
		return dist.PhotoCaption()
	case SizeTrendingPreview:
		return dist.TrendingPreviewMix()
	case SizeFixed1KB:
		return dist.NewFixed(1*dist.KB, "fixed_1kb")
	case SizeFixed10KB:
		return dist.NewFixed(10*dist.KB, "fixed_10kb")
	case SizeFixed100KB:
		return dist.NewFixed(100*dist.KB, "fixed_100kb")
	default:
		panic(fmt.Sprintf("ycsb: unknown size kind %d", int(k)))
	}
}

// Spec describes a workload to generate.
type Spec struct {
	Name      string
	Keys      int
	Requests  int
	Dist      DistSpec
	ReadRatio float64 // fraction of requests that are reads, in [0,1]
	Sizes     SizeKind
	Seed      int64
	// UseCase is the narrative scenario from Table III, for reports.
	UseCase string
}

// Validate checks the spec for consistency.
func (s Spec) Validate() error {
	if s.Keys <= 0 {
		return fmt.Errorf("ycsb: spec %q: keys %d must be positive", s.Name, s.Keys)
	}
	if s.Requests <= 0 {
		return fmt.Errorf("ycsb: spec %q: requests %d must be positive", s.Name, s.Requests)
	}
	if s.ReadRatio < 0 || s.ReadRatio > 1 {
		return fmt.Errorf("ycsb: spec %q: read ratio %v outside [0,1]", s.Name, s.ReadRatio)
	}
	return nil
}

// Record is one key-value pair of the dataset.
type Record struct {
	Key  string
	ID   uint64 // kvstore.KeyID(Key), cached
	Size int    // value size in bytes; fixed for the workload's lifetime
}

// Dataset is the fixed key population of a workload. The paper fixes the
// total memory capacity to the dataset size, so TotalBytes is the C of
// the cost model.
type Dataset struct {
	Records    []Record
	TotalBytes int64
}

// Op is one request of the trace, referring to a record by index.
type Op struct {
	Key  int // index into Dataset.Records
	Kind kvstore.OpKind
}

// Workload is a generated dataset plus request trace — the full workload
// descriptor Mnemo consumes. The trace has three possible backings:
// materialized Ops, the packed struct-of-arrays encoding alone (shard
// sub-workloads), or a Stream (an on-disk .mtrc trace, for traces larger
// than memory). Replay reads it one way, as the frame sequence Frames
// yields; Ops is an input representation only.
type Workload struct {
	Spec    Spec
	Dataset Dataset
	Ops     []Op

	// Stream backs the trace with an external frame source instead of
	// in-memory ops. A streamed workload has nil Ops and a nil packed
	// encoding; Frames delegates to the stream.
	Stream TraceStream

	// memo holds the artifacts built from this trace (Derived).
	memo Memo
}

// Memo builds each keyed artifact at most once: the one singleflight
// behind every artifact derived from a trace (Workload.Derived) and every
// pipeline stage a core.ArtifactCache keeps. The zero value is ready to
// use and must not be copied after first use.
type Memo struct {
	m sync.Map // comparable key → *memoEntry
}

// memoEntry is one artifact, built under once.
type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

// Do returns the artifact build makes for key, built at most once per
// comparable key (build must not ask for its own key): concurrent
// callers of a key share one build, and built reports whether this call
// ran it. A failed build is dropped, so the next call builds again. A
// build that panics fails too: the callers waiting on it get an error
// carrying the panic value, and the panic continues on the goroutine
// that ran the build.
func (m *Memo) Do(key any, build func() (any, error)) (v any, built bool, err error) {
	ev, ok := m.m.Load(key)
	if !ok {
		ev, _ = m.m.LoadOrStore(key, new(memoEntry))
	}
	e := ev.(*memoEntry)
	e.once.Do(func() {
		built = true
		defer func() {
			if p := recover(); p != nil { // panic(nil) recovers as *runtime.PanicNilError
				e.err = fmt.Errorf("ycsb: memo build panicked: %v", p)
				m.m.CompareAndDelete(key, e)
				panic(p)
			}
		}()
		if e.v, e.err = build(); e.err != nil {
			m.m.CompareAndDelete(key, e)
		}
	})
	return e.v, built, e.err
}

// Derived returns the artifact build derives from w, built at most once
// per key through w's Memo; the artifact lives exactly as long as w.
func (w *Workload) Derived(key any, build func() (any, error)) (any, error) {
	v, _, err := w.memo.Do(key, build)
	return v, err
}

// FrameIter yields a trace's frames in order. The returned slices alias
// iterator-owned buffers valid until the next call; rw reports that the
// frame holds only Read and Write ops (the batched kernel's per-frame
// precondition). The iterator ends with io.EOF.
type FrameIter interface {
	Next() (keys []uint32, kinds []uint8, rw bool, err error)
}

// TraceStream is a re-iterable source of trace frames — the contract an
// on-disk trace (internal/trace) satisfies. Frames must return a fresh,
// independent iterator positioned at the first frame on every call:
// repetitions, shards and trace-wide statistics each stream the
// trace again from the start.
type TraceStream interface {
	// Requests is the total op count across all frames.
	Requests() int
	// Frames starts a new iteration from the first frame.
	Frames() (FrameIter, error)
}

// PackedTrace is the struct-of-arrays encoding of a request trace for
// the batched replay kernel (DESIGN.md §12): one packed uint32 record
// index and one uint8 op kind per request, so a replay block streams two
// dense arrays instead of loading 16-byte Op structs.
type PackedTrace struct {
	Keys  []uint32
	Kinds []uint8
	// readWriteOnly reports that the trace contains only Read and Write
	// ops — the precondition of table-driven replay, which cannot price
	// deletions against a static dataset.
	readWriteOnly bool
}

// Batchable reports whether this encoding can drive the batched replay
// kernel. Nil-safe: a nil PackedTrace (trace not encodable) is not
// batchable.
func (t *PackedTrace) Batchable() bool { return t != nil && t.readWriteOnly }

type packedKey struct{} // Packed's key in the Derived memo

// Packed returns the workload's struct-of-arrays trace encoding, built
// lazily and memoized (Derived); concurrent callers (parallel
// measurement runs share one *Workload) get the same instance. It
// returns nil when the trace is not encodable (key indices beyond
// uint32). The encoding is read-only — callers must not mutate it, and
// it goes stale if Ops is modified after the first call.
func (w *Workload) Packed() *PackedTrace {
	if w.Stream != nil {
		// A streamed trace is never materialized; replay consumes frames.
		return nil
	}
	pt, _ := w.Derived(packedKey{}, func() (any, error) {
		if len(w.Dataset.Records) > math.MaxUint32 {
			return (*PackedTrace)(nil), nil
		}
		pt := &PackedTrace{
			Keys:  make([]uint32, len(w.Ops)),
			Kinds: make([]uint8, len(w.Ops)),
		}
		for i, op := range w.Ops {
			pt.Keys[i] = uint32(op.Key)
			pt.Kinds[i] = uint8(op.Kind)
		}
		pt.readWriteOnly = readWriteOnly(pt.Kinds)
		return pt, nil
	})
	p, _ := pt.(*PackedTrace) // nil when a concurrent build panicked
	return p
}

// KeyName formats the canonical key string for a key index.
func KeyName(i int) string { return fmt.Sprintf("user%08d", i) }

// FromPacked builds a workload whose trace exists only in packed form
// (Ops stays nil): the struct-of-arrays encoding is installed in the
// Derived memo at construction. The shard
// partitioner uses this to split batchable traces without ever
// materializing 16-byte Ops per shard. Keys and kinds must reference
// ds.Records; the caller transfers ownership of both slices.
func FromPacked(spec Spec, ds Dataset, keys []uint32, kinds []uint8) *Workload {
	pt := &PackedTrace{Keys: keys, Kinds: kinds, readWriteOnly: readWriteOnly(kinds)}
	w := &Workload{Spec: spec, Dataset: ds}
	w.Derived(packedKey{}, func() (any, error) { return pt, nil })
	return w
}

// RequestCount returns the trace length regardless of representation:
// Ops when materialized, the stream's declared total, or the packed
// encoding.
func (w *Workload) RequestCount() int {
	if w.Ops != nil {
		return len(w.Ops)
	}
	if w.Stream != nil {
		return w.Stream.Requests()
	}
	if pt := w.Packed(); pt != nil {
		return len(pt.Keys)
	}
	return 0
}

// Frames is a cursor over a trace's frames, whichever backing the trace
// has — the one frame source of replay (internal/client) and of the
// trace-wide helpers below. An in-memory or packed-only trace yields
// StreamFrameOps-sized windows over Packed(); a streamed trace delegates
// to its stream's iterator. It is a value, not an interface, so starting
// an in-memory iteration allocates nothing.
type Frames struct {
	keys  []uint32 // unread remainder of the packed trace
	kinds []uint8
	rwAll bool      // whole packed trace is read/write-only
	it    FrameIter // non-nil for a streamed trace
}

// Frames starts an iteration from the trace's first frame. The errors
// are a stream that cannot be opened and a trace Packed cannot encode.
func (w *Workload) Frames() (Frames, error) {
	if w.Stream != nil {
		it, err := w.Stream.Frames()
		return Frames{it: it}, err
	}
	pt := w.Packed()
	if pt == nil {
		return Frames{}, fmt.Errorf("ycsb: workload %q: %d keys exceed the packed key index range", w.Spec.Name, len(w.Dataset.Records))
	}
	return Frames{keys: pt.Keys, kinds: pt.Kinds, rwAll: pt.readWriteOnly}, nil
}

// Next yields the next frame under the FrameIter contract: the slices
// are valid until the next call, rw reports a frame of only Read and
// Write ops, and the iteration ends with io.EOF.
func (f *Frames) Next() (keys []uint32, kinds []uint8, rw bool, err error) {
	if f.it != nil {
		return f.it.Next()
	}
	if len(f.keys) == 0 {
		return nil, nil, false, io.EOF
	}
	n := min(len(f.keys), StreamFrameOps)
	keys, kinds = f.keys[:n], f.kinds[:n]
	f.keys, f.kinds = f.keys[n:], f.kinds[n:]
	return keys, kinds, f.rwAll || readWriteOnly(kinds), nil
}

// readWriteOnly reports whether kinds holds only Read and Write ops.
func readWriteOnly(kinds []uint8) bool {
	for _, k := range kinds {
		if kvstore.OpKind(k) != kvstore.Read && kvstore.OpKind(k) != kvstore.Write {
			return false
		}
	}
	return true
}

// ForEachOp visits every trace op in order. It is the trace-wide
// iteration primitive behind AccessCounts, TouchOrder and ReadFraction,
// and the one policies should use instead of reaching for w.Ops. Ops,
// the input representation, is read as it stands — packing a trace that
// may never be replayed (a workload being spilled to .mtrc) would hold
// 5 B/op for nothing; every other trace is read from its frame source
// (O(frame) memory on a streamed one). The only error sources are those
// of Frames and a stream that fails to decode.
func (w *Workload) ForEachOp(fn func(key int, kind kvstore.OpKind)) error {
	if w.Ops != nil {
		for _, op := range w.Ops {
			fn(op.Key, op.Kind)
		}
		return nil
	}
	frames, err := w.Frames()
	if err != nil {
		return err
	}
	for {
		keys, kinds, _, err := frames.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for i := range keys {
			fn(int(keys[i]), kvstore.OpKind(kinds[i]))
		}
	}
}

// Generate builds the workload deterministically from its spec and
// seed. It is GenerateStream with the frames materialized — one
// implementation, so the in-memory and streamed op sequences cannot
// drift.
func Generate(spec Spec) (*Workload, error) {
	ops := make([]Op, 0, spec.Requests)
	ds, err := GenerateStream(spec, nil, func(keys []uint32, kinds []uint8) error {
		for i := range keys {
			ops = append(ops, Op{Key: int(keys[i]), Kind: kvstore.OpKind(kinds[i])})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Workload{Spec: spec, Dataset: ds, Ops: ops}, nil
}

// MustGenerate is Generate that panics on error, for presets known valid.
func MustGenerate(spec Spec) *Workload {
	w, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return w
}

// AccessCounts tallies per-key read and write counts over the trace —
// the Req(keys) relationship the Pattern Engine extracts. It works on
// every trace backing (Ops, packed, stream); a stream that fails to
// decode mid-iteration yields the counts accumulated so far — replay of
// the same stream surfaces the error loudly.
func (w *Workload) AccessCounts() (reads, writes []int) {
	reads, writes, _ = w.CountAccesses()
	return reads, writes
}

// CountAccesses is AccessCounts with the stream's read error, for
// callers that must not act on a truncated tally. The slices are the
// caller's. A tally another whole-trace pass took (SetAccessTally: the
// LLC walk of a measuring call, internal/server) is copied out without
// reading the trace; otherwise CountAccesses takes its own pass.
func (w *Workload) CountAccesses() (reads, writes []int, err error) {
	if t := w.tallySlot().Load(); t != nil {
		return slices.Clone(t.reads), slices.Clone(t.writes), nil
	}
	t := NewAccessTally(len(w.Dataset.Records))
	err = w.ForEachOp(func(key int, kind kvstore.OpKind) { t.Add(uint32(key), uint8(kind)) })
	return t.reads, t.writes, err
}

// AccessTally is a trace's per-record access counts, the one definition
// of AccessCounts: a Read counts as a read of its record, every other
// kind (Write, Delete) as a write. CountAccesses fills one with its own
// pass, and a pass over the trace that runs anyway (the LLC walk) fills
// one as it goes and installs it with SetAccessTally.
type AccessTally struct {
	reads, writes []int
}

// NewAccessTally returns a zero tally over records records.
func NewAccessTally(records int) *AccessTally {
	return &AccessTally{reads: make([]int, records), writes: make([]int, records)}
}

// Add counts one request of the given kind on record key.
func (t *AccessTally) Add(key uint32, kind uint8) {
	if kvstore.OpKind(kind) == kvstore.Read {
		t.reads[key]++
	} else {
		t.writes[key]++
	}
}

type accessTallyKey struct{} // the installed AccessTally's key in the Derived memo

// tallySlot returns the workload's slot for an installed tally, nil
// until SetAccessTally.
func (w *Workload) tallySlot() *atomic.Pointer[AccessTally] {
	slot, _ := w.Derived(accessTallyKey{}, func() (any, error) { return new(atomic.Pointer[AccessTally]), nil })
	return slot.(*atomic.Pointer[AccessTally])
}

// SetAccessTally installs t, taken by a pass over the whole trace, as
// the workload's access counts: every later CountAccesses copies it out
// instead of reading the trace. The workload takes t; the first tally
// installed stays.
func (w *Workload) SetAccessTally(t *AccessTally) {
	w.tallySlot().CompareAndSwap(nil, t)
}

type touchOrderKey struct{} // TouchOrder's key in the Derived memo

// TouchOrder returns key indices in order of first touch by the trace;
// untouched keys follow in index order. This is the incremental sizing
// order of stand-alone Mnemo ("with the keys as they get accessed
// (touched) by the workload access pattern"). The trace is walked once
// per workload (Derived): every caller gets the same slice, which is
// read-only. The error is the trace's read error; the order then ranks
// the keys the ops before it touched first, and the next call walks the
// trace again.
func (w *Workload) TouchOrder() ([]int, error) {
	order, err := w.Derived(touchOrderKey{}, func() (any, error) {
		seen := make([]bool, len(w.Dataset.Records))
		order := make([]int, 0, len(w.Dataset.Records))
		err := w.ForEachOp(func(key int, _ kvstore.OpKind) {
			if !seen[key] {
				seen[key] = true
				order = append(order, key)
			}
		})
		for i := range seen {
			if !seen[i] {
				order = append(order, i)
			}
		}
		return order, err
	})
	o, _ := order.([]int) // nil when a concurrent build panicked
	return o, err
}

// Downsample reduces the trace by the given factor using the paper's
// scheme: "evict from the workload random key requests at fixed
// intervals" — one surviving request is kept per block of factor
// requests, chosen uniformly within the block, preserving both ordering
// and the key distribution. The dataset is unchanged. factor 1 returns a
// copy.
func (w *Workload) Downsample(factor int, seed int64) *Workload {
	if factor <= 0 {
		panic(fmt.Sprintf("ycsb: downsample factor %d must be positive", factor))
	}
	if w.Stream != nil {
		// Downsampling materializes the surviving ops; a streamed trace
		// must be regenerated (or captured) at the reduced rate instead.
		panic("ycsb: downsample is not supported on streamed traces")
	}
	out := &Workload{Spec: w.Spec, Dataset: w.Dataset}
	out.Spec.Name = fmt.Sprintf("%s/ds%d", w.Spec.Name, factor)
	if factor == 1 {
		out.Ops = append([]Op(nil), w.Ops...)
		out.Spec.Requests = len(out.Ops)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for start := 0; start < len(w.Ops); start += factor {
		end := start + factor
		if end > len(w.Ops) {
			end = len(w.Ops)
		}
		out.Ops = append(out.Ops, w.Ops[start+rng.Intn(end-start)])
	}
	out.Spec.Requests = len(out.Ops)
	return out
}

// ReadFraction reports the measured fraction of reads in the trace, on
// any trace backing.
func (w *Workload) ReadFraction() float64 {
	reads, total := 0, 0
	_ = w.ForEachOp(func(_ int, kind kvstore.OpKind) {
		total++
		if kind == kvstore.Read {
			reads++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(reads) / float64(total)
}

// StreamFrameOps is the frame granularity of GenerateStream, equal to
// the batched replay kernel's block size and the .mtrc frame bound.
const StreamFrameOps = 4096

// GenerateStream is Generate for traces too large to materialize: the
// dataset is built eagerly (it is O(keys), the part every consumer
// needs resident) and the request trace is emitted through the emit
// callback in StreamFrameOps-sized batches, using memory bounded by one
// batch. begin, if non-nil, runs once between the dataset build and the
// first frame — a trace writer uses it to emit its schema header, whose
// value-size table comes from the dataset. The op sequence is
// bit-identical to Generate's for the same spec — the RNG draw order is
// the same — so a trace written through emit replays exactly like the
// in-memory workload.
// A spec named "ycsb_f" is refused: no Spec expresses YCSB-F's
// read-modify-write pairs, so only GenerateF builds that trace.
func GenerateStream(spec Spec, begin func(ds *Dataset) error, emit func(keys []uint32, kinds []uint8) error) (Dataset, error) {
	if spec.Name == "ycsb_f" {
		return Dataset{}, fmt.Errorf("ycsb: spec %q cannot regenerate its read-modify-write pairs; build it with WorkloadByNameSized(%[1]q, seed, keys, requests) (ycsb.GenerateF)", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return Dataset{}, err
	}
	if spec.Keys > math.MaxUint32 {
		return Dataset{}, fmt.Errorf("ycsb: spec %q: %d keys exceed the packed key index range", spec.Name, spec.Keys)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := spec.Sizes.New()
	ds := Dataset{Records: make([]Record, spec.Keys)}
	for i := range ds.Records {
		key := KeyName(i)
		size := sizes.Next(rng)
		ds.Records[i] = Record{Key: key, ID: kvstore.KeyID(key), Size: size}
		ds.TotalBytes += int64(size)
	}
	if begin != nil {
		if err := begin(&ds); err != nil {
			return Dataset{}, err
		}
	}
	chooser := spec.Dist.New(spec.Keys, spec.Requests)
	var keys [StreamFrameOps]uint32
	var kinds [StreamFrameOps]uint8
	n := 0
	for i := 0; i < spec.Requests; i++ {
		k := chooser.Next(rng)
		kind := kvstore.Read
		if rng.Float64() >= spec.ReadRatio {
			kind = kvstore.Write
		}
		keys[n] = uint32(k)
		kinds[n] = uint8(kind)
		n++
		if n == StreamFrameOps {
			if err := emit(keys[:n], kinds[:n]); err != nil {
				return Dataset{}, err
			}
			n = 0
		}
	}
	if n > 0 {
		if err := emit(keys[:n], kinds[:n]); err != nil {
			return Dataset{}, err
		}
	}
	return ds, nil
}
