package server

import (
	"mnemo/internal/memsim"
)

// Placement maps dataset records to memory tiers. The paper's deployment
// runs two server instances of the same key-value store, one bound to
// each memory node; a placement decides which instance serves each
// record. Placements are static — Mnemo produces "a static key
// allocation, with no support for dynamic data migration".
//
// A placement addresses records by dataset index, since a workload trace
// already refers to records that way: AllFast and AllSlow put every
// record on one tier, FastIndices carries a dense []memsim.Tier.
// Deployment.Load materializes it into its per-record tier table.
type Placement struct {
	defaultTier memsim.Tier
	// dense[i] is the tier of dataset record i; nil places every record
	// on defaultTier.
	dense []memsim.Tier
}

// AllFast places every key on FastMem — the paper's best-case baseline.
func AllFast() Placement { return Placement{defaultTier: memsim.Fast} }

// AllSlow places every key on SlowMem — the worst-case baseline.
func AllSlow() Placement { return Placement{defaultTier: memsim.Slow} }

// FastIndices places the records with the listed dataset indices on
// FastMem and the rest of the `total`-record dataset on SlowMem — the
// incremental tierings of the estimate curve. Indices outside
// [0, total) panic.
func FastIndices(fastIdx []int, total int) Placement {
	if total < 0 {
		panic("server: negative dataset size")
	}
	dense := make([]memsim.Tier, total)
	for i := range dense {
		dense[i] = memsim.Slow
	}
	for _, i := range fastIdx {
		dense[i] = memsim.Fast
	}
	return Placement{defaultTier: memsim.Slow, dense: dense}
}

// TierOfIndex returns the tier serving the record with the given dataset
// index; an index the placement does not cover gets the default tier.
func (p Placement) TierOfIndex(idx int) memsim.Tier {
	if idx >= 0 && idx < len(p.dense) {
		return p.dense[idx]
	}
	return p.defaultTier
}

// Dense reports whether the placement lists a tier per record (false for
// AllFast and AllSlow).
func (p Placement) Dense() bool { return p.dense != nil }

// FastKeyCount reports how many records are explicitly pinned to
// FastMem (0 for AllFast/AllSlow placements, which pin via the default).
func (p Placement) FastKeyCount() int {
	n := 0
	for _, t := range p.dense {
		if t == memsim.Fast {
			n++
		}
	}
	return n
}

// Default reports the tier used for records without an explicit tier.
func (p Placement) Default() memsim.Tier { return p.defaultTier }
