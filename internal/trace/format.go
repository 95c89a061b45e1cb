// Package trace defines the .mtrc streaming binary trace container:
// Mnemo's on-disk workload format for traces too large to replay from
// memory (DESIGN.md §16).
//
// A .mtrc file is a schema header followed by self-delimiting frames:
//
//	magic "MTRC" | version u16 | headerLen u32 | header | headerCRC u32
//	frame*  where frame = count u32 | flags u8 | keys count×u32 |
//	                      kinds count×u8 | frameCRC u32
//
// The header carries everything a replayer needs before the first
// request: the workload name, the key-space size, the declared request
// total, the op-kind legend, the per-key value-size table, and —
// for traces whose keys are not the canonical generated names — the key
// strings themselves. Frames hold at most FrameOps requests in
// struct-of-arrays form (32-bit key indices, one byte per op kind), the
// exact shape the batched replay kernel consumes, so a reader can hand
// frames to ReplayTable.Serve without any per-op transformation.
//
// Every multi-byte field is little-endian. The header and each frame
// carry a CRC-32 (IEEE) of their payload; a reader rejects — with a
// typed *FormatError, never a panic — any magic/version mismatch,
// checksum failure, truncation, out-of-legend op kind, out-of-range key
// index, over-long frame, or op count that disagrees with the declared
// total.
package trace

import (
	"errors"
	"fmt"
)

// Magic is the 4-byte file signature.
const Magic = "MTRC"

// Version is the current container version. Readers accept exactly this
// version; see DESIGN.md §16 for the version-bump rule (any change to
// the byte layout of the header or frames — field widths, order,
// meaning, or checksum coverage — must bump it, and the previous
// version's golden fixture keeps decoding under the new reader or the
// reader must reject it loudly).
const Version = 1

// FrameOps is the maximum request count of one frame. It equals the
// batched replay kernel's block size (server.ReplayBlockOps), so one
// frame is one kernel call.
const FrameOps = 4096

// OpKinds is the op-kind legend size of version 1: Read (0), Write (1),
// Delete (2) — kvstore.OpKind's values. A frame byte outside the legend
// is a format error.
const OpKinds = 3

// MaxKeys bounds the key-space size a reader will accept. The size
// table alone costs 4 bytes per key, so this caps a hostile header at
// an allocation the reader chunks anyway; it is far above the largest
// supported dataset (the 10M-key cluster recipe).
const MaxKeys = 1 << 28

// MaxNameLen bounds the workload-name and per-key string lengths.
const MaxNameLen = 1 << 12

// Header flag bits.
const (
	// FlagCanonicalKeys marks a trace whose key strings are exactly
	// ycsb.KeyName(i) ("user%08d") for every index — generated
	// workloads — letting the file omit the per-key name block.
	FlagCanonicalKeys = 1 << 0
)

// Frame flag bits.
const (
	// FrameReadWrite marks a frame containing only Read and Write ops —
	// the batched kernel's precondition, recorded at write time so a
	// replayer classifies the frame without rescanning it.
	FrameReadWrite = 1 << 0
)

// Header is the decoded schema header of a .mtrc file.
type Header struct {
	Name     string
	Keys     int    // key-space size; every frame key index is < Keys
	Requests uint64 // declared op total; frames must sum to exactly this
	Flags    uint16
	// Sizes is the per-key value-size table (bytes), indexed by key.
	Sizes []int32
	// KeyNames holds the per-key strings when FlagCanonicalKeys is
	// unset; nil otherwise (names are KeyName(i)).
	KeyNames []string
}

// Canonical reports whether the trace's key strings are the generated
// canonical names.
func (h *Header) Canonical() bool { return h.Flags&FlagCanonicalKeys != 0 }

// FormatError is the typed decode failure of the .mtrc reader: every
// malformed input — wrong magic, unknown version, truncation, checksum
// mismatch, schema violation — surfaces as one of these, wrapping a
// sentinel from the Err* list below.
type FormatError struct {
	Offset int64 // byte offset the failure was detected at
	Err    error // sentinel (ErrBadMagic, ErrChecksum, …)
	Detail string
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("trace: offset %d: %s: %s", e.Offset, e.Err, e.Detail)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *FormatError) Unwrap() error { return e.Err }

// Sentinel decode failures, matchable with errors.Is.
var (
	ErrBadMagic   = errors.New("bad magic")
	ErrBadVersion = errors.New("unsupported version")
	ErrTruncated  = errors.New("truncated")
	ErrChecksum   = errors.New("checksum mismatch")
	ErrSchema     = errors.New("schema violation")
)

// errTotalBeyondFile is the sentinel of a header whose declared request
// total the file's frame bytes cannot hold. The header lies or the file
// was cut short, and the two look alike until the frames are read, so
// it matches both ErrSchema and ErrTruncated.
var errTotalBeyondFile = fmt.Errorf("%w or %w", ErrSchema, ErrTruncated)

// formatErr builds a *FormatError in one line.
func formatErr(off int64, sentinel error, format string, args ...any) error {
	return &FormatError{Offset: off, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
}

// fixedHeaderLen is the byte length of the fixed (non-variable) header
// payload prefix: flags u16, opKinds u8, pad u8, keys u32, requests u64,
// nameLen u16.
const fixedHeaderLen = 2 + 1 + 1 + 4 + 8 + 2

// preludeLen is the byte length before the header payload: magic,
// version, headerLen.
const preludeLen = 4 + 2 + 4

// frameHeadLen is the byte length of a frame's count+flags prefix.
const frameHeadLen = 4 + 1

// frameCRCLen is the byte length of a frame's trailing checksum.
const frameCRCLen = 4

// frameLen returns the total encoded byte length of a frame holding n
// ops.
func frameLen(n int) int64 { return frameHeadLen + int64(n)*5 + frameCRCLen }
