// Package kvstore defines the in-memory key-value store abstraction the
// Mnemo reproduction profiles, plus shared types for reporting the memory
// behaviour of each operation.
//
// The paper treats Redis, Memcached and DynamoDB-local as black boxes and
// observes them only through request service times. This repository
// builds one engine per store (internal/kvstore/hashkv, slabkv, treekv)
// with genuinely different data structures and request paths; every
// operation returns an OpTrace describing the pointer chases and byte
// traffic it generated, which internal/server prices against the emulated
// hybrid memory machine. A stored value is its size alone: no simulated
// quantity depends on payload bytes, and 10 000 × 100 KB payloads would
// dominate host memory.
package kvstore

import (
	"fmt"
	"hash/fnv"
)

// Value is a stored payload, represented by its size in bytes.
type Value struct {
	Size int
}

// Sized returns a Value of n bytes.
func Sized(n int) Value {
	if n < 0 {
		panic(fmt.Sprintf("kvstore: negative value size %d", n))
	}
	return Value{Size: n}
}

// OpKind classifies an operation for profile accounting.
type OpKind int

// Operation kinds.
const (
	Read OpKind = iota
	Write
	Delete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpTrace reports what one operation did to memory, in engine-neutral
// units the server layer prices against a memory tier.
type OpTrace struct {
	Kind     OpKind
	RecordID uint64 // stable identity of the record for the LLC model
	Chases   int    // dependent pointer dereferences on the record's tier
	Touched  int    // bytes of record data streamed (incl. amplification)
	Found    bool   // for Get/Delete: whether the key existed
}

// Store is an in-memory key-value store engine.
//
// Engines are deterministic and not safe for concurrent use (the paper's
// client issues requests sequentially; concurrency effects such as
// Memcached's worker threads are modeled as memory-level parallelism in
// the engine's profile, not with goroutines).
//
// Every operation takes the key together with its precomputed record
// identity, id = KeyID(key): a workload trace resolves each key's ID once
// at generation time, so no request re-hashes its key.
type Store interface {
	// PutID inserts or replaces a value and reports the memory traffic.
	PutID(key string, id uint64, v Value) OpTrace
	// GetID looks a key up.
	GetID(key string, id uint64) (Value, OpTrace)
	// DelID removes a key if present.
	DelID(key string, id uint64) OpTrace
	// Len reports the number of resident keys.
	Len() int
	// DataBytes reports the total resident payload bytes (the quantity
	// capacity sizing is about).
	DataBytes() int64
	// TakePauseNs drains any accumulated background stall (rehash, GC,
	// eviction) that the next request must absorb, in nanoseconds.
	TakePauseNs() float64
}

// BatchReplayer is the optional capability behind the server's batched
// replay kernel (DESIGN.md §12). An engine that implements it can promise
// that, once quiesced, its per-operation traces for resident keys are
// static: no rehash in flight, no structural mutation on overwrite — so
// Get/Put traces can be precomputed once into a flat cost table and
// replayed without walking the store — and say which of those traces an
// insert or remove has since moved (Relaid), so the table is refreshed
// row by row rather than rebuilt. The one thing a replayed request still
// does to an engine is charge its pause model (ChargeReplay).
type BatchReplayer interface {
	// Quiesce drives deferred background work (incremental rehash,
	// pending node splits) to completion so subsequent operations on
	// resident keys stop mutating structure. Stall time accrued while
	// quiescing lands in TakePauseNs, letting the load phase drain it
	// untimed. Quiesce is idempotent.
	Quiesce()
	// ReplayReady reports whether every resident key's Get/Put traces
	// are static — typically true only after Quiesce. A false return
	// forces the caller back onto the per-operation path.
	ReplayReady() bool
	// StaticTrace returns the constant Get and Put pointer-chase counts
	// of a resident key, without mutating the store. ok is false when the
	// key is absent (its traces would then depend on dynamic state).
	StaticTrace(key string, id uint64) (getChases, putChases int, ok bool)
	// MissTrace returns the constant Get pointer-chase count of an
	// absent key, when the engine can promise one: a miss that touches
	// no record bytes and leaves the engine's state and pause accounting
	// alone. ok is false when a miss's trace depends on dynamic state (a
	// hash chain, a tree descent).
	MissTrace() (getChases int, ok bool)
	// ChargeReplay charges one kernel-served request on a resident
	// record of size payload bytes to the engine's steady-state stall
	// source, exactly as serving it through GetID or PutID would, and
	// returns the stall the request absorbs (what TakePauseNs would
	// return after it). Engines without a pause model return 0. The
	// engine stays the only holder of its pause accounting.
	ChargeReplay(size int) float64
	// PauseAccum reports the engine's pause accumulator, and false when
	// the engine has no pause model (ChargeReplay is then always 0 and
	// a miss leaves its accounting alone).
	PauseAccum() (accum int64, ok bool)
	// SetPauseAccum restores a value PauseAccum reported, so a rewound
	// run resumes its accounting from the post-load snapshot. Engines
	// without a pause model ignore it.
	SetPauseAccum(accum int64)
	// Relaid drains the engine's relayout journal: it calls fn for every
	// resident key whose StaticTrace may differ from what it was at the
	// previous Relaid call — the keys an insert or remove since then
	// moved in the engine's layout, inserted keys included — and returns
	// true. It returns false, after draining, when that set is unbounded
	// (a table resize, a journal past its cap, or an engine that keeps
	// no journal): the caller must then treat every resident key as
	// changed. fn may be called more than once per key and must not
	// mutate the store.
	Relaid(fn func(key string, id uint64)) bool
	// RelaidBounded reports, without draining, whether Relaid called now
	// would return true.
	RelaidBounded() bool
}

// EngineProfile captures how an engine converts memory traffic into
// service time. These constants are the calibration described in
// DESIGN.md §5; they are chosen so that the three engines reproduce the
// paper's sensitivity ordering (DynamoDB ≫ Redis ≫ Memcached).
type EngineProfile struct {
	Name string
	// CPUBaseNs is the tier-independent request handling cost: parsing,
	// protocol, syscalls, client library.
	CPUBaseNs float64
	// CPUPerByteNs is the tier-independent per-byte handling cost
	// (serialization, checksums, copies within the CPU caches).
	CPUPerByteNs float64
	// MLP is the memory-level parallelism: how many outstanding memory
	// operations the request path overlaps. Byte-traffic time is divided
	// by this (Memcached's worker threads hide most stalls).
	MLP float64
	// WritePenalty scales the byte-traffic cost of writes relative to
	// reads; store write buffering means writes rarely stall on the slow
	// tier (Fig 5b).
	WritePenalty float64
	// ReadAmplification multiplies value bytes touched per Get
	// (DynamoDB-local parses/validates/copies the record repeatedly).
	ReadAmplification float64
	// WriteAmplification multiplies value bytes touched per Put.
	WriteAmplification float64
}

// Amplify scales a payload size by an engine amplification factor. A
// factor of 1 — the common case — is the identity and skips the float
// round trip on the per-operation path.
func Amplify(size int, factor float64) int {
	if factor == 1 {
		return size
	}
	return int(float64(size) * factor)
}

// KeyID derives the stable 64-bit record identity the engines take with
// every key (GetID/PutID/DelID). It must be a pure function of the key.
func KeyID(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // fnv never errors
	return h.Sum64()
}
