package registry

import (
	"context"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/ycsb"
)

func paramsTestWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "params-test", Keys: 200, Requests: 4000, Seed: 7,
		ReadRatio: 0.9,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		Sizes:     ycsb.SizeTrendingPreview,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func TestNewParamsDefaultVectorIsPlainPolicy(t *testing.T) {
	for _, name := range Names() {
		e, _ := ByName(name)
		p, err := NewParams(name, 1, nil)
		if err != nil {
			t.Fatalf("NewParams(%s, nil): %v", name, err)
		}
		if p.Name() != e.New(1).Name() {
			t.Errorf("NewParams(%s, nil) named %q, want the default name", name, p.Name())
		}
		if len(e.Params) == 0 {
			continue
		}
		// The full default vector must also resolve to the plain policy.
		p, err = NewParams(name, 1, e.Params.Defaults())
		if err != nil {
			t.Fatalf("NewParams(%s, defaults): %v", name, err)
		}
		if got, want := p.Name(), e.New(1).Name(); got != want {
			t.Errorf("NewParams(%s, defaults) named %q, want %q", name, got, want)
		}
	}
}

func TestNewParamsQualifiesNonDefaultNames(t *testing.T) {
	p, err := NewParams("freqdecay", 1, map[string]float64{"decay": 0.25})
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	// Missing params keep their defaults and appear in the name, so the
	// same vector always maps to the same artifact-cache key.
	if got, want := p.Name(), "freqdecay(decay=0.25,epochs=8)"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	k, err := NewParams("knapsack", 1, map[string]float64{"anchor": 0.3})
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	if got, want := k.Name(), "knapsack(anchor=0.3,rungs=3)"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

func TestNewParamsRejections(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		params map[string]float64
		want   string
	}{
		{"unknown policy", "nosuch", map[string]float64{"x": 1}, "unknown policy"},
		{"unknown param", "freqdecay", map[string]float64{"rate": 3}, `unknown param "rate"`},
		{"below min", "freqdecay", map[string]float64{"decay": 0}, "outside [0.01,1]"},
		{"above max", "freqdecay", map[string]float64{"epochs": 1000}, "outside [1,64]"},
		{"non-integer", "freqdecay", map[string]float64{"epochs": 2.5}, "must be an integer"},
		{"NaN", "knapsack", map[string]float64{"anchor": nan()}, "not a finite number"},
		{"no params", "touch", map[string]float64{"decay": 0.5}, "no tunable parameters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewParams(tc.policy, 1, tc.params)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewParams(%s, %v) error = %v, want substring %q", tc.policy, tc.params, err, tc.want)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestParamClamp(t *testing.T) {
	p := Param{Name: "epochs", Min: 1, Max: 64, Integer: true}
	for _, tc := range []struct{ in, want float64 }{
		{0.2, 1}, {2.6, 3}, {500, 64}, {8, 8},
	} {
		if got := p.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The generalized knapsack ladder with default params must reproduce the
// original {1/8, 1/4, 1/2} ladder bit-identically.
func TestKnapsackDefaultLadderUnchanged(t *testing.T) {
	w := paramsTestWorkload(t)
	def, err := KnapsackExact.Order(context.Background(), w)
	if err != nil {
		t.Fatalf("default Order: %v", err)
	}
	viaParams, err := NewParams("knapsack", 1, map[string]float64{"rungs": 3, "anchor": 0})
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	got, err := viaParams.Order(context.Background(), w)
	if err != nil {
		t.Fatalf("params Order: %v", err)
	}
	if len(got.Keys) != len(def.Keys) {
		t.Fatalf("ordering sizes differ: %d vs %d", len(got.Keys), len(def.Keys))
	}
	for i := range got.Keys {
		if got.Keys[i] != def.Keys[i] {
			t.Fatalf("ordering diverges at %d: %+v vs %+v", i, got.Keys[i], def.Keys[i])
		}
	}
}

// An anchored knapsack must produce a valid full ordering and a
// different FastMem front when the anchor rung's exact packing disagrees
// with density order.
func TestKnapsackAnchorOrdering(t *testing.T) {
	w := paramsTestWorkload(t)
	p, err := NewParams("knapsack", 1, map[string]float64{"anchor": 0.17})
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	ord, err := p.Order(context.Background(), w)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	if len(ord.Keys) != len(w.Dataset.Records) {
		t.Fatalf("ordered %d of %d keys", len(ord.Keys), len(w.Dataset.Records))
	}
	seen := make(map[int]bool, len(ord.Keys))
	for _, k := range ord.Keys {
		if seen[k.Index] {
			t.Fatalf("key index %d appears twice", k.Index)
		}
		seen[k.Index] = true
	}
	if ord.Name != p.Name() {
		t.Errorf("ordering named %q, want %q", ord.Name, p.Name())
	}
}

// Parameterized adaptive-freq must stay an epoch policy: the qualified
// instance still opens per-run observers.
func TestAdaptiveFreqParamsKeepsEpochPolicy(t *testing.T) {
	p, err := NewParams("adaptive-freq", 1, map[string]float64{"decay": 0.3})
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	if got, want := p.Name(), "adaptive-freq(decay=0.3)"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	ep, ok := core.AsEpochPolicy(p)
	if !ok {
		t.Fatal("parameterized adaptive-freq lost the EpochPolicy interface")
	}
	obs, err := ep.Begin(paramsTestWorkload(t))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if obs == nil {
		t.Fatal("Begin returned a nil observer")
	}
}

func TestFormatParamsCanonical(t *testing.T) {
	v := map[string]float64{"b": 2, "a": 0.5, "c": 10}
	if got, want := FormatParams(v), "a=0.5,b=2,c=10"; got != want {
		t.Errorf("FormatParams = %q, want %q", got, want)
	}
}
