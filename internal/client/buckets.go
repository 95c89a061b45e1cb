package client

import "math/bits"

// SizeBucket returns the power-of-two record-size class of a record
// size: records of size s fall in class bits.Len(s), i.e. class b covers
// [2^(b-1), 2^b). RunStats' per-class latency histograms
// (ReadLatency/WriteLatency) and the size-aware and tail estimates in
// internal/core are keyed by it.
func SizeBucket(size int) int {
	if size <= 0 {
		return 0
	}
	return bits.Len(uint(size))
}

// BucketRange reports the [lo, hi) size range of a bucket.
func BucketRange(bucket int) (lo, hi int) {
	if bucket <= 0 {
		return 0, 1
	}
	return 1 << (bucket - 1), 1 << bucket
}
