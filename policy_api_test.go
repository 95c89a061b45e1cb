package mnemo_test

import (
	"context"
	"reflect"
	"testing"

	"mnemo"
)

func apiWorkload(t *testing.T) *mnemo.Workload {
	t.Helper()
	w, err := mnemo.WorkloadByNameSized("trending", 71, 300, 3000)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOptionsPolicy exercises the named-policy path of the public API.
func TestOptionsPolicy(t *testing.T) {
	w := apiWorkload(t)
	viaName, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 71, SLO: 0.10, Policy: "mnemot"})
	if err != nil {
		t.Fatal(err)
	}
	if viaName.Policy != "mnemot" {
		t.Fatalf("report policy %q", viaName.Policy)
	}
	// The registry's alias spelling of the default policy works.
	if _, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 71, Policy: "standalone"}); err != nil {
		t.Fatalf("standalone alias: %v", err)
	}
	if _, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 71, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPoliciesCatalog(t *testing.T) {
	policies := mnemo.Policies()
	if len(policies) < 6 {
		t.Fatalf("catalog has %d policies", len(policies))
	}
	for _, p := range policies {
		if p.Description == "" {
			t.Errorf("policy %q lacks a description", p.Name)
		}
		built, err := mnemo.PolicyByName(p.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if built.Name() != p.Name {
			t.Errorf("PolicyByName(%q) built %q", p.Name, built.Name())
		}
	}
	if _, err := mnemo.PolicyByName("bogus", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSessionCompareAPI drives the staged pipeline end to end through
// the public API: one measurement, per-policy reports matching their
// one-shot Profile twins.
func TestSessionCompareAPI(t *testing.T) {
	w := apiWorkload(t)
	opts := mnemo.Options{Store: mnemo.RedisLike, Seed: 72}
	session, err := mnemo.NewSession(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var policies []mnemo.TieringPolicy
	for _, name := range []string{"touch", "mnemot", "tahoe", "freqdecay"} {
		p, err := mnemo.PolicyByName(name, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	reports, err := session.Compare(context.Background(), 0.10, policies...)
	if err != nil {
		t.Fatal(err)
	}
	if session.MeasureCount() != 1 {
		t.Fatalf("%d policies took %d measurements", len(policies), session.MeasureCount())
	}
	optsT := opts
	optsT.Policy = "tahoe"
	optsT.SLO = 0.10
	solo, err := mnemo.Profile(w, optsT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, reports[2]) {
		t.Fatal("session tahoe report differs from one-shot Profile")
	}
}

// TestSessionCompareRepeatable pins the registry freshness contract from
// the caller's side: Compare called twice back to back — same session,
// same policy instances, the whole catalog including the stateful
// (pagesample) and adaptive ones — must produce identical reports. A
// policy that leaks mutable state from one Order call into the next
// breaks this.
func TestSessionCompareRepeatable(t *testing.T) {
	w := apiWorkload(t)
	opts := mnemo.Options{Store: mnemo.RedisLike, Seed: 72}
	session, err := mnemo.NewSession(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var policies []mnemo.TieringPolicy
	for _, info := range mnemo.Policies() {
		p, err := mnemo.PolicyByName(info.Name, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	first, err := session.Compare(context.Background(), 0.10, policies...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := session.Compare(context.Background(), 0.10, policies...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("policy %q: repeated Compare diverged", first[i].Policy)
		}
	}
	// Fresh instances from the registry repeat the result too.
	var rebuilt []mnemo.TieringPolicy
	for _, info := range mnemo.Policies() {
		p, err := mnemo.PolicyByName(info.Name, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, p)
	}
	third, err := session.Compare(context.Background(), 0.10, rebuilt...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("fresh registry instances diverged from the first Compare")
	}
}

func TestWorkloadByNameSized(t *testing.T) {
	w, err := mnemo.WorkloadByNameSized("ycsb_f", 5, 120, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Dataset.Records) != 120 {
		t.Fatalf("keys override ignored: %d", len(w.Dataset.Records))
	}
	if _, err := mnemo.WorkloadByNameSized("bogus", 5, 0, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
