package core

import (
	"context"
	"fmt"

	"mnemo/internal/ycsb"
)

// TieringPolicy is a pluggable Pattern Engine: anything that can rank a
// workload's key space by FastMem priority. The three deployment
// scenarios of Fig 2 (stand-alone touch order, an external tiering
// solution's ordering, MnemoT's weighted tiering) are all policies, as
// are the related-work orderers (sampled-page profiling, exact knapsack,
// frequency heuristics) registered in internal/registry.
//
// Contract: Order must return an Ordering that covers every dataset key
// exactly once — entry Index names a dataset record and Key equals that
// record's key; Session.Analyze rejects any other ordering — must be
// deterministic for a given workload (any randomness seeded from the
// workload descriptor), and must not mutate the workload. Name identifies the policy in reports, caches and the
// registry, so registered policies need unique names.
type TieringPolicy interface {
	// Name is the policy's registry identifier (e.g. "touch", "mnemot").
	Name() string
	// Order ranks the workload's keys by FastMem priority. The context
	// bounds any measurement or replay the policy performs; pure
	// computations may ignore it.
	Order(ctx context.Context, w *ycsb.Workload) (Ordering, error)
}

// Touch is the stand-alone Mnemo Pattern Engine (Fig 2a) as a policy:
// keys in the order the workload first touches them.
var Touch TieringPolicy = touchPolicy{}

type touchPolicy struct{}

func (touchPolicy) Name() string { return "touch" }

func (touchPolicy) Order(_ context.Context, w *ycsb.Workload) (Ordering, error) {
	ord, err := touchOrdering(w)
	if err != nil {
		return Ordering{}, fmt.Errorf("touch: reading trace: %w", err)
	}
	return ord, nil
}

// MnemoT is the MnemoT Pattern Engine (Fig 2c / Fig 7) as a policy: keys
// by descending accesses-per-byte weight.
var MnemoT TieringPolicy = mnemotPolicy{}

type mnemotPolicy struct{}

func (mnemotPolicy) Name() string { return "mnemot" }

func (mnemotPolicy) Order(_ context.Context, w *ycsb.Workload) (Ordering, error) {
	ord, err := mnemoTOrdering(w)
	if err != nil {
		return Ordering{}, fmt.Errorf("mnemot: reading trace: %w", err)
	}
	return ord, nil
}

// External wraps an existing tiering solution's DRAM key allocation
// (deployment mode 2b, Fig 2b) as a policy. The listed keys form the
// FastMem-priority prefix; unlisted keys follow in dataset order.
func External(tieredKeys []string) TieringPolicy {
	return externalPolicy{keys: tieredKeys}
}

type externalPolicy struct{ keys []string }

func (externalPolicy) Name() string { return "external" }

func (p externalPolicy) Order(_ context.Context, w *ycsb.Workload) (Ordering, error) {
	return ExternalOrdering(w, p.keys)
}
