package core

import (
	"context"
	"strings"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// orderingPolicy is a user-supplied TieringPolicy returning a fixed
// ordering, well-formed or not.
type orderingPolicy struct{ ord Ordering }

func (p orderingPolicy) Name() string { return "user-policy" }

func (p orderingPolicy) Order(context.Context, *ycsb.Workload) (Ordering, error) { return p.ord, nil }

// TestOrderingContractEnforced: an ordering that breaks the
// TieringPolicy contract — a record listed twice, an Index outside the
// dataset, a Key that is not its record's — is rejected when it enters
// the pipeline, with an error naming the policy. Each corruption
// keeps the entry count, so a length check alone passes all of them.
func TestOrderingContractEnforced(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "contract", Keys: 400, Requests: 200,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 7,
	})
	good := TouchOrdering(w)
	n := len(good.Keys)
	if last := good.Keys[n-1]; last.Accesses() != 0 {
		t.Fatalf("the trace touches every key; the test needs cold keys at the tail")
	}
	corrupt := func(edit func(keys []KeyStat)) Ordering {
		ord := good
		ord.Keys = append([]KeyStat(nil), good.Keys...)
		edit(ord.Keys)
		return ord
	}
	cases := []struct {
		name string
		ord  Ordering
		want string
	}{
		{"duplicate cold key", corrupt(func(k []KeyStat) { k[n-1] = k[n-2] }), "repeats dataset record"},
		{"negative index", corrupt(func(k []KeyStat) { k[0].Index = -1 }), "outside [0,400)"},
		{"index past the dataset", corrupt(func(k []KeyStat) { k[5].Index = n }), "outside [0,400)"},
		{"key of another record", corrupt(func(k []KeyStat) { k[3].Key = k[4].Key }), "dataset record"},
		{"short", Ordering{Name: good.Name, Keys: good.Keys[:n-1]}, "ordered 399 of 400 keys"},
	}
	cfg := DefaultConfig(server.RedisLike, 3)
	cfg.Runs = 1
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Profile(ctx, cfg, w, orderingPolicy{ord: tc.ord}, 0.1)
			if err == nil || !strings.Contains(err.Error(), `policy "user-policy"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Profile with a user policy: err = %v, want one naming the policy and %q", err, tc.want)
			}
		})
	}
	if _, err := Profile(ctx, cfg, w, orderingPolicy{ord: good}, 0.1); err != nil {
		t.Fatalf("well-formed ordering rejected: %v", err)
	}
}
