package registry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mnemo/internal/core"
	"mnemo/internal/obs"
)

// Param is one tunable knob of a policy (or of the measurement runtime):
// inclusive bounds, a default, and the scale a search driver should
// explore it on. Bounds are part of the contract — NewParams rejects
// out-of-range values before any policy is constructed.
type Param struct {
	Name string
	// Min and Max bound the value inclusively.
	Min, Max float64
	// Default is the value the registry's parameterless constructor uses;
	// a vector equal to all defaults resolves to the plain policy.
	Default float64
	// Integer constrains the value to whole numbers.
	Integer bool
	// Log marks a multiplicative scale: search drivers should step the
	// value by factors, not increments (decay rates, sampling rates).
	Log         bool
	Description string
}

// Check validates one value against the param's bounds and integrality.
func (p Param) Check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("registry: param %s=%v is not a finite number", p.Name, v)
	}
	if v < p.Min || v > p.Max {
		return fmt.Errorf("registry: param %s=%v outside [%v,%v]", p.Name, v, p.Min, p.Max)
	}
	if p.Integer && v != math.Trunc(v) {
		return fmt.Errorf("registry: param %s=%v must be an integer", p.Name, v)
	}
	return nil
}

// Clamp snaps a proposed value into the param's domain: rounded if
// integral, then clipped to the bounds. Search drivers use it to keep
// perturbed candidates valid.
func (p Param) Clamp(v float64) float64 {
	if p.Integer {
		v = math.Round(v)
	}
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}

// ParamSpace is a policy's full tunable surface, in display order.
type ParamSpace []Param

// ByName finds a param in the space.
func (ps ParamSpace) ByName(name string) (Param, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Defaults returns the space's default vector (nil for an empty space).
func (ps ParamSpace) Defaults() map[string]float64 {
	if len(ps) == 0 {
		return nil
	}
	out := make(map[string]float64, len(ps))
	for _, p := range ps {
		out[p.Name] = p.Default
	}
	return out
}

// Validate checks a partial vector against the space: every named param
// must exist and every value must be in bounds. Params absent from the
// vector keep their defaults.
func (ps ParamSpace) Validate(v map[string]float64) error {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, ok := ps.ByName(name)
		if !ok {
			return fmt.Errorf("registry: unknown param %q (want one of %s)", name, ps.names())
		}
		if err := p.Check(v[name]); err != nil {
			return err
		}
	}
	return nil
}

// complete fills a partial vector with the space's defaults.
func (ps ParamSpace) complete(v map[string]float64) map[string]float64 {
	out := ps.Defaults()
	for name, val := range v {
		out[name] = val
	}
	return out
}

// isDefault reports whether a complete vector equals the defaults.
func (ps ParamSpace) isDefault(v map[string]float64) bool {
	for _, p := range ps {
		if v[p.Name] != p.Default {
			return false
		}
	}
	return true
}

func (ps ParamSpace) names() string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// FormatParam renders one param value canonically: integers without a
// fraction, everything else in shortest round-trip form.
func FormatParam(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatParams renders a vector canonically: names sorted, values in
// FormatParam form, comma-joined ("decay=0.3,epochs=8"). Qualified
// policy names embed this, so equal vectors always collide in the
// Session's name-keyed artifact caches and unequal ones never do.
func FormatParams(v map[string]float64) string {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + FormatParam(v[name])
	}
	return strings.Join(parts, ",")
}

// qualifiedName is the cache-key-safe name of a parameterized policy
// instance: "freqdecay(decay=0.3,epochs=8)".
func qualifiedName(name string, v map[string]float64) string {
	return name + "(" + FormatParams(v) + ")"
}

// NewParams constructs the named policy from a parameter vector. A nil
// or empty vector — and a vector equal to the space's defaults — resolves
// to the plain default-named policy, so artifact caches keyed by policy
// name share work with unparameterized callers. Params absent from the
// vector keep their defaults; unknown names and out-of-bounds values are
// rejected. Policies without a tunable surface reject any non-empty
// vector.
func NewParams(name string, seed int64, params map[string]float64) (core.TieringPolicy, error) {
	e, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown policy %q (want one of %v)", name, Names())
	}
	if len(params) == 0 {
		return e.New(seed), nil
	}
	if e.FromParams == nil {
		return nil, fmt.Errorf("registry: policy %q has no tunable parameters", e.Name)
	}
	if err := e.Params.Validate(params); err != nil {
		return nil, fmt.Errorf("registry: policy %q: %w", e.Name, err)
	}
	full := e.Params.complete(params)
	if e.Params.isDefault(full) {
		return e.New(seed), nil
	}
	return e.FromParams(seed, full)
}

// NewParamsObs is NewParams with observability: a successful resolution
// counts toward the sink's
// mnemo_registry_policy_resolutions_total{policy=…} under the canonical
// base name, exactly like NewObs. A nil sink records nothing.
func NewParamsObs(name string, seed int64, params map[string]float64, sink *obs.Sink) (core.TieringPolicy, error) {
	p, err := NewParams(name, seed, params)
	if err != nil {
		return nil, err
	}
	if e, ok := ByName(name); ok {
		sink.Counter(obs.Name("mnemo_registry_policy_resolutions_total", "policy", e.Name)).Inc()
	}
	return p, nil
}
