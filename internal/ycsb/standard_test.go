package ycsb

import (
	"math"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
)

func TestStandardWorkloadsGenerate(t *testing.T) {
	for _, spec := range StandardWorkloads(5) {
		spec.Keys = 500
		spec.Requests = 5000
		generate, wantReads := Generate, spec.ReadRatio
		if spec.Name == "ycsb_f" {
			// Every logical op reads once and each RMW also writes, so
			// reads are 1 / (1 + write share) of the physical trace.
			generate = func(s Spec) (*Workload, error) { return GenerateF(s.Seed, s.Keys, s.Requests) }
			wantReads = 1 / (2 - spec.ReadRatio)
		}
		w, err := generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if rf := w.ReadFraction(); math.Abs(rf-wantReads) > 0.02 {
			t.Errorf("%s: read fraction %.3f, want %.2f", spec.Name, rf, wantReads)
		}
		// Stock YCSB records are 1 KB.
		if w.Dataset.Records[0].Size != 1024 {
			t.Errorf("%s: record size %d, want 1024", spec.Name, w.Dataset.Records[0].Size)
		}
	}
}

// TestGenerateRefusesF: no spec regenerates YCSB-F's read-modify-write
// pairs, neither WorkloadF nor the one a GenerateF trace carries, so
// Generate and GenerateStream refuse them and name the way that does.
func TestGenerateRefusesF(t *testing.T) {
	f, err := GenerateF(5, 500, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{WorkloadF(5), f.Spec} {
		if _, err := Generate(spec); err == nil || !strings.Contains(err.Error(), "WorkloadByNameSized") {
			t.Errorf("Generate(%+v) = %v, want an error naming WorkloadByNameSized", spec, err)
		}
		emit := func([]uint32, []uint8) error { return nil }
		if _, err := GenerateStream(spec, nil, emit); err == nil {
			t.Errorf("GenerateStream(%+v) accepted", spec)
		}
	}
}

func TestStandardByName(t *testing.T) {
	for _, name := range []string{"ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d", "ycsb_f"} {
		if _, ok := StandardByName(name, 1); !ok {
			t.Errorf("%s not found", name)
		}
	}
	if _, ok := StandardByName("ycsb_e", 1); ok {
		t.Error("workload E should not exist (scans unsupported)")
	}
}

func TestAnySpecByName(t *testing.T) {
	if _, ok := AnySpecByName("trending", 1); !ok {
		t.Error("Table III name not resolved")
	}
	if _, ok := AnySpecByName("ycsb_c", 1); !ok {
		t.Error("standard name not resolved")
	}
	if _, ok := AnySpecByName("nope", 1); ok {
		t.Error("unknown name resolved")
	}
}

func TestAllWorkloadNamesUnique(t *testing.T) {
	names := AllWorkloadNames()
	// 5 Table III presets + 5 YCSB core workloads + 2 drift presets.
	if len(names) != 12 {
		t.Fatalf("names = %d, want 12", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate %q", n)
		}
		seen[n] = true
	}
}

func TestWorkloadCSkewMatchesZipfian(t *testing.T) {
	spec := WorkloadC(7)
	spec.Keys = 1000
	spec.Requests = 50000
	w := MustGenerate(spec)
	reads, _ := w.AccessCounts()
	top, total := 0, 0
	for i, c := range reads {
		total += c
		if i < 200 {
			top += c
		}
	}
	if frac := float64(top) / float64(total); frac < 0.7 {
		t.Errorf("zipfian top-20%% share %.3f too low", frac)
	}
}

func TestGenerateFReadModifyWrite(t *testing.T) {
	w, err := GenerateF(3, 300, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Physical ops exceed logical requests (each RMW adds one).
	if len(w.Ops) <= 3000 || len(w.Ops) > 4600 {
		t.Fatalf("ops = %d, want in (3000, 4600]", len(w.Ops))
	}
	// Every write must be immediately preceded by a read of the same key.
	for i, op := range w.Ops {
		if op.Kind != kvstore.Write {
			continue
		}
		if i == 0 || w.Ops[i-1].Kind != kvstore.Read || w.Ops[i-1].Key != op.Key {
			t.Fatalf("write at %d not preceded by read of same key", i)
		}
	}
	if w.Spec.Requests != len(w.Ops) {
		t.Fatal("spec request count not updated")
	}
}

func TestGenerateFValidates(t *testing.T) {
	if _, err := GenerateF(1, 0, 100); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := GenerateF(1, 100, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestWorkloadDRecency(t *testing.T) {
	spec := WorkloadD(9)
	spec.Keys = 1000
	spec.Requests = 20000
	w := MustGenerate(spec)
	// Early ops hit low key IDs; late ops hit high IDs (the drifting
	// head of the latest distribution).
	meanKey := func(ops []Op) float64 {
		s := 0
		for _, op := range ops {
			s += op.Key
		}
		return float64(s) / float64(len(ops))
	}
	early := meanKey(w.Ops[:2000])
	late := meanKey(w.Ops[len(w.Ops)-2000:])
	if late-early < 300 {
		t.Errorf("latest head did not advance: early %.0f, late %.0f", early, late)
	}
}
