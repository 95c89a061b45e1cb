package ycsb

import (
	"fmt"
	"math/rand"

	"mnemo/internal/kvstore"
)

// The default YCSB core workloads the paper's custom Table III traces are
// adapted from (Cooper et al., SoCC'10). They use the benchmark's stock
// parameters: zipfian or latest request distributions and ≈1 KB records
// (10 fields × 100 B). Workload E (short scans) is omitted — none of the
// profiled stores expose scans in this reproduction, and the paper does
// not use it either.

// WorkloadA is YCSB-A: update heavy, 50:50 read:update, zipfian.
func WorkloadA(seed int64) Spec {
	return Spec{
		Name:      "ycsb_a",
		Keys:      DefaultKeys,
		Requests:  DefaultRequests,
		Dist:      DistSpec{Kind: Zipfian},
		ReadRatio: 0.5,
		Sizes:     SizeFixed1KB,
		Seed:      seed,
		UseCase:   "YCSB-A: session store recording recent actions.",
	}
}

// WorkloadB is YCSB-B: read mostly, 95:5 read:update, zipfian.
func WorkloadB(seed int64) Spec {
	return Spec{
		Name:      "ycsb_b",
		Keys:      DefaultKeys,
		Requests:  DefaultRequests,
		Dist:      DistSpec{Kind: Zipfian},
		ReadRatio: 0.95,
		Sizes:     SizeFixed1KB,
		Seed:      seed,
		UseCase:   "YCSB-B: photo tagging; mostly reads, occasional tag updates.",
	}
}

// WorkloadC is YCSB-C: read only, zipfian.
func WorkloadC(seed int64) Spec {
	return Spec{
		Name:      "ycsb_c",
		Keys:      DefaultKeys,
		Requests:  DefaultRequests,
		Dist:      DistSpec{Kind: Zipfian},
		ReadRatio: 1.0,
		Sizes:     SizeFixed1KB,
		Seed:      seed,
		UseCase:   "YCSB-C: user profile cache.",
	}
}

// WorkloadD is YCSB-D: read latest, 95:5 read:insert. The reproduction's
// key space is fixed (Mnemo sizes a fixed dataset), so inserts become
// updates of the newest records, preserving the recency-skewed access
// pattern that defines D.
func WorkloadD(seed int64) Spec {
	return Spec{
		Name:      "ycsb_d",
		Keys:      DefaultKeys,
		Requests:  DefaultRequests,
		Dist:      DistSpec{Kind: Latest},
		ReadRatio: 0.95,
		Sizes:     SizeFixed1KB,
		Seed:      seed,
		UseCase:   "YCSB-D: user status updates; people read the latest.",
	}
}

// WorkloadF is YCSB-F: read-modify-write, 50:50 read:RMW, zipfian. See
// GenerateF: each RMW issues a read of the key immediately followed by a
// write of the same key, as the real benchmark does.
func WorkloadF(seed int64) Spec {
	return Spec{
		Name:      "ycsb_f",
		Keys:      DefaultKeys,
		Requests:  DefaultRequests,
		Dist:      DistSpec{Kind: Zipfian},
		ReadRatio: 0.5, // half of the logical operations are RMW
		Sizes:     SizeFixed1KB,
		Seed:      seed,
		UseCase:   "YCSB-F: user database; records read, modified, written back.",
	}
}

// StandardWorkloads returns the YCSB core specs (A, B, C, D, F).
func StandardWorkloads(seed int64) []Spec {
	return []Spec{WorkloadA(seed), WorkloadB(seed), WorkloadC(seed), WorkloadD(seed), WorkloadF(seed)}
}

// StandardByName resolves a YCSB core workload ("ycsb_a" … "ycsb_f").
func StandardByName(name string, seed int64) (Spec, bool) {
	for _, s := range StandardWorkloads(seed) {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// GenerateF builds the YCSB-F trace with true read-modify-write pairs:
// logical operations are drawn like any other workload, but each "write"
// becomes a read of the key immediately followed by a write of the same
// key. The trace therefore holds up to 1.5× Spec.Requests physical
// operations, as the real benchmark's RMW accounting does. Generate
// refuses the stored Spec, which cannot regenerate the pairs.
func GenerateF(seed int64, keys, requests int) (*Workload, error) {
	spec := WorkloadF(seed)
	spec.Keys = keys
	spec.Requests = requests
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := spec.Sizes.New()
	ds := Dataset{Records: make([]Record, spec.Keys)}
	for i := range ds.Records {
		key := KeyName(i)
		size := sizes.Next(rng)
		ds.Records[i] = Record{Key: key, ID: kvstore.KeyID(key), Size: size}
		ds.TotalBytes += int64(size)
	}
	chooser := spec.Dist.New(spec.Keys, spec.Requests)
	ops := make([]Op, 0, spec.Requests*3/2)
	for i := 0; i < spec.Requests; i++ {
		k := chooser.Next(rng)
		if rng.Float64() < spec.ReadRatio {
			ops = append(ops, Op{Key: k, Kind: kvstore.Read})
			continue
		}
		// Read-modify-write: read then write back the same key.
		ops = append(ops, Op{Key: k, Kind: kvstore.Read}, Op{Key: k, Kind: kvstore.Write})
	}
	w := &Workload{Spec: spec, Dataset: ds, Ops: ops}
	w.Spec.Requests = len(ops)
	return w, nil
}

// AnySpecByName resolves a Table III, YCSB core, or drift workload name.
func AnySpecByName(name string, seed int64) (Spec, bool) {
	if s, ok := SpecByName(name, seed); ok {
		return s, ok
	}
	if s, ok := StandardByName(name, seed); ok {
		return s, ok
	}
	return DriftByName(name, seed)
}

// AllWorkloadNames lists every built-in workload name.
func AllWorkloadNames() []string {
	var names []string
	for _, s := range TableIII(0) {
		names = append(names, s.Name)
	}
	for _, s := range StandardWorkloads(0) {
		names = append(names, s.Name)
	}
	for _, s := range DriftWorkloads(0) {
		names = append(names, s.Name)
	}
	return names
}

// mustNoDuplicateNames guards the preset registries at init time.
func init() {
	seen := map[string]bool{}
	for _, n := range AllWorkloadNames() {
		if seen[n] {
			panic(fmt.Sprintf("ycsb: duplicate workload name %q", n))
		}
		seen[n] = true
	}
}
