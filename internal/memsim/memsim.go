// Package memsim emulates the paper's hybrid memory testbed: a machine
// with one fast memory node (DRAM — "FastMem") and one slow node
// (emulated NVDIMM — "SlowMem"), fronted by a shared last-level cache.
//
// The paper emulates SlowMem by thermally throttling the DRAM of one
// socket of a dual-socket Xeon, yielding the Table I parameters:
//
//	           FastMem   SlowMem
//	Latency    65.7 ns   238.1 ns   (×3.62)
//	Bandwidth  14.9 GB/s 1.81 GB/s  (×0.12)
//
// This package substitutes a discrete-event model with exactly those
// parameters. A memory access is decomposed into pointer chases (random
// accesses that pay the node latency) and streamed bytes (that pay the
// node's inverse bandwidth); a 12 MB LRU record cache stands in for the
// testbed's shared LLC. SlowMem extends the flat address space — FastMem
// does not act as a cache for SlowMem, matching the paper's setup.
package memsim

import (
	"errors"
	"fmt"
)

// Tier identifies one of the two memory components.
type Tier int

// The two tiers of the hybrid memory system.
const (
	Fast Tier = iota
	Slow
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case Fast:
		return "FastMem"
	case Slow:
		return "SlowMem"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// NodeParams describes the performance of one memory node.
type NodeParams struct {
	Name          string
	LatencyNs     float64 // random-access (pointer chase) latency
	BandwidthGBps float64 // sustained streaming bandwidth
}

// Table I parameters of the paper's testbed.
var (
	// FastMemParams is the unthrottled DRAM node (B:1 L:1).
	FastMemParams = NodeParams{Name: "FastMem", LatencyNs: 65.7, BandwidthGBps: 14.9}
	// SlowMemParams is the throttled node emulating NVM (B:0.12 L:3.62).
	SlowMemParams = NodeParams{Name: "SlowMem", LatencyNs: 238.1, BandwidthGBps: 1.81}
	// LLCParams models the shared 12 MB last-level cache of the testbed.
	LLCParams = NodeParams{Name: "LLC", LatencyNs: 12.0, BandwidthGBps: 60}
)

// SlowTier describes an alternative slow-memory technology: its node
// parameters plus the per-byte price relative to DRAM. The paper's
// analysis fixes one emulated NVM and p = 0.2; these presets let the
// technology-sensitivity experiment re-ask the sizing question for the
// slow tiers that materialized after publication.
type SlowTier struct {
	Params      NodeParams
	PriceFactor float64
}

// SlowTiers returns the bundled slow-tier technology presets, the
// paper's emulation first. Latency/bandwidth values follow published
// measurements of the respective device classes; price factors are
// coarse per-GB ratios against DRAM.
func SlowTiers() []SlowTier {
	return []SlowTier{
		{Params: SlowMemParams, PriceFactor: 0.2}, // the paper's emulated NVDIMM
		{Params: NodeParams{Name: "OptaneDC", LatencyNs: 346, BandwidthGBps: 2.4}, PriceFactor: 0.4},
		{Params: NodeParams{Name: "CXL-DRAM", LatencyNs: 220, BandwidthGBps: 11}, PriceFactor: 0.7},
		{Params: NodeParams{Name: "FarMemory", LatencyNs: 3000, BandwidthGBps: 1.5}, PriceFactor: 0.1},
	}
}

// bytesPerNsPerGBps converts GB/s to bytes per nanosecond.
const bytesPerNsPerGBps = 1.073741824 // 2^30 bytes / 1e9 ns

// TransferNs returns the time in nanoseconds to stream the given number
// of bytes at this node's bandwidth.
func (p NodeParams) TransferNs(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / (p.BandwidthGBps * bytesPerNsPerGBps)
}

// ChaseNs returns the time in nanoseconds for n dependent pointer chases.
func (p NodeParams) ChaseNs(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * p.LatencyNs
}

// AccessNs returns the combined cost of n pointer chases plus streaming
// the given bytes.
func (p NodeParams) AccessNs(chases, bytes int) float64 {
	return p.ChaseNs(chases) + p.TransferNs(bytes)
}

// OpCost returns the two static components of one logical access against
// this medium, unsummed: the chase cost of n dependent loads and the
// streaming cost of the given bytes. This is the cost-table export used
// by the server's batched replay kernel, which needs the components
// separately (writes scale only the transfer term by the engine's
// WritePenalty) yet must combine them in exactly the per-operation
// order to stay bit-identical with the live pricing path.
func (p NodeParams) OpCost(chases, bytes int) (chaseNs, transferNs float64) {
	return p.ChaseNs(chases), p.TransferNs(bytes)
}

// Node is one memory component with capacity accounting.
type Node struct {
	Params   NodeParams
	capacity int64
	used     int64
}

// ErrNoCapacity is returned when an allocation exceeds the node's
// remaining capacity.
var ErrNoCapacity = errors.New("memsim: node capacity exhausted")

// NewNode creates a node with the given parameters and byte capacity.
// A capacity of 0 means unlimited (the consultant sizes capacity itself,
// so the substrate does not need to enforce a bound during profiling).
func NewNode(p NodeParams, capacity int64) *Node {
	if capacity < 0 {
		panic("memsim: negative capacity")
	}
	return &Node{Params: p, capacity: capacity}
}

// Alloc reserves bytes on the node.
func (n *Node) Alloc(bytes int64) error {
	if bytes < 0 {
		panic("memsim: negative allocation")
	}
	if n.capacity > 0 && n.used+bytes > n.capacity {
		return fmt.Errorf("%w: %s used %d + %d > cap %d", ErrNoCapacity, n.Params.Name, n.used, bytes, n.capacity)
	}
	n.used += bytes
	return nil
}

// Free releases bytes previously allocated.
func (n *Node) Free(bytes int64) {
	if bytes < 0 {
		panic("memsim: negative free")
	}
	n.used -= bytes
	if n.used < 0 {
		n.used = 0
	}
}

// Used reports the bytes currently allocated on the node.
func (n *Node) Used() int64 { return n.used }

// Capacity reports the node's configured capacity (0 = unlimited).
func (n *Node) Capacity() int64 { return n.capacity }

// RecordRef identifies a stored record for cache-model purposes.
type RecordRef struct {
	ID    uint64
	Bytes int
}

// Machine is the emulated dual-node platform. Its shared LLC is an
// LRUCache of Config.LLCBytes that the server walks over the trace.
type Machine struct {
	fast, slow *Node
}

// Config parameterizes a Machine.
type Config struct {
	FastParams, SlowParams NodeParams
	FastCapacity           int64 // bytes; 0 = unlimited
	SlowCapacity           int64 // bytes; 0 = unlimited
	LLCBytes               int64 // shared cache size; 0 disables the cache model
	LLCParams              NodeParams
}

// DefaultConfig returns the Table I testbed: unlimited node capacities
// (the consultant decides sizing) and the 12 MB shared LLC.
func DefaultConfig() Config {
	return Config{
		FastParams: FastMemParams,
		SlowParams: SlowMemParams,
		LLCBytes:   12 << 20,
		LLCParams:  LLCParams,
	}
}

// NewMachine builds a machine from the config.
func NewMachine(cfg Config) *Machine {
	return &Machine{
		fast: NewNode(cfg.FastParams, cfg.FastCapacity),
		slow: NewNode(cfg.SlowParams, cfg.SlowCapacity),
	}
}

// Node returns the node backing the given tier.
func (m *Machine) Node(t Tier) *Node {
	if t == Fast {
		return m.fast
	}
	return m.slow
}

// Calibration holds the latency and bandwidth measured through the access
// path, used to regenerate Table I and to validate the model wiring.
type Calibration struct {
	Tier          Tier
	LatencyNs     float64
	BandwidthGBps float64
}

// Calibrate measures a tier with a pointer-chase microbenchmark (latency)
// and a large streaming access (bandwidth), bypassing the LLC the way the
// paper's calibration does (working sets larger than the cache).
func (m *Machine) Calibrate(t Tier) Calibration {
	p := m.Node(t).Params
	const chases = 1_000_000
	latTotal := p.ChaseNs(chases)
	const streamBytes = 1 << 30
	xferNs := p.TransferNs(streamBytes)
	return Calibration{
		Tier:          t,
		LatencyNs:     latTotal / chases,
		BandwidthGBps: float64(streamBytes) / (xferNs * bytesPerNsPerGBps),
	}
}
