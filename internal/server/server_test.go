package server

import (
	"math"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/ycsb"
)

func smallWorkload(t *testing.T, sizes ycsb.SizeKind, readRatio float64) *ycsb.Workload {
	t.Helper()
	// 2000 keys keep the working set well above the 12 MB LLC for the
	// thumbnail sizes, as the paper's 10 000-key datasets do.
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "test", Keys: 2000, Requests: 6000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: readRatio, Sizes: sizes, Seed: 1,
	})
}

func TestEngineStringAndLookup(t *testing.T) {
	for _, e := range Engines() {
		got, ok := EngineByName(e.String())
		if !ok || got != e {
			t.Errorf("round trip failed for %v", e)
		}
	}
	if _, ok := EngineByName("bogus"); ok {
		t.Error("bogus engine resolved")
	}
	if Engine(99).String() == "" {
		t.Error("unknown engine should format")
	}
}

func TestEngineProfilesDiffer(t *testing.T) {
	r, m, d := RedisLike.Profile(), MemcachedLike.Profile(), DynamoLike.Profile()
	if m.MLP <= r.MLP {
		t.Error("memcached-like must overlap more memory stalls than redis-like")
	}
	if d.ReadAmplification <= r.ReadAmplification {
		t.Error("dynamo-like must amplify reads more than redis-like")
	}
}

func TestPlacementRouting(t *testing.T) {
	p := FastIndices([]int{0, 1}, 3)
	if p.TierOfIndex(1) != memsim.Fast || p.TierOfIndex(2) != memsim.Slow {
		t.Fatal("FastIndices routing wrong")
	}
	if p.FastKeyCount() != 2 {
		t.Fatalf("FastKeyCount = %d", p.FastKeyCount())
	}
	if AllFast().TierOfIndex(7) != memsim.Fast || AllSlow().TierOfIndex(7) != memsim.Slow {
		t.Fatal("baseline placements wrong")
	}
	if AllFast().Default() != memsim.Fast {
		t.Fatal("Default accessor wrong")
	}
	if AllSlow().FastKeyCount() != 0 {
		t.Fatal("AllSlow has fast overrides")
	}
}

func TestLoadRoutesDataToTiers(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1)
	d := NewDeployment(DefaultConfig(RedisLike, 1))
	if err := d.Load(w.Dataset, FastIndices([]int{0, 1}, len(w.Dataset.Records))); err != nil {
		t.Fatal(err)
	}
	if got := d.Instance(memsim.Fast).Len(); got != 2 {
		t.Fatalf("fast instance has %d keys, want 2", got)
	}
	if got := d.Instance(memsim.Slow).Len(); got != len(w.Dataset.Records)-2 {
		t.Fatalf("slow instance has %d keys", got)
	}
	if d.Machine().Node(memsim.Fast).Used() != 2*1024 {
		t.Fatalf("fast node used %d bytes", d.Machine().Node(memsim.Fast).Used())
	}
}

func TestLoadRespectsCapacity(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1)
	cfg := DefaultConfig(RedisLike, 1)
	cfg.Machine.FastCapacity = 512 // too small for even one record
	d := NewDeployment(cfg)
	if err := d.Load(w.Dataset, AllFast()); err == nil {
		t.Fatal("overflowing load accepted")
	}
}

func TestDoAdvancesClock(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 1)
	d := NewDeployment(DefaultConfig(RedisLike, 1))
	if err := d.Load(w.Dataset, AllFast()); err != nil {
		t.Fatal(err)
	}
	before := d.Clock()
	res := d.DoIndex(0, kvstore.Read)
	if !res.Found {
		t.Fatal("loaded key not found")
	}
	if res.Latency <= 0 || d.Clock() != before+res.Latency {
		t.Fatal("clock did not advance by latency")
	}
	if res.Tier != memsim.Fast {
		t.Fatal("wrong tier")
	}
}

func TestDoUnknownKindPanics(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1)
	d := NewDeployment(DefaultConfig(RedisLike, 1))
	if err := d.Load(w.Dataset, AllFast()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.DoIndex(0, kvstore.OpKind(9))
}

func TestSlowTierSlowerForLargeRecords(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed100KB, 1)
	run := func(p Placement) float64 {
		cfg := DefaultConfig(RedisLike, 1)
		cfg.NoiseSigma = 0 // deterministic comparison
		d := NewDeployment(cfg)
		if err := d.Load(w.Dataset, p); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, op := range w.Ops {
			total += float64(d.DoIndex(op.Key, op.Kind).Latency)
		}
		return total
	}
	fast, slow := run(AllFast()), run(AllSlow())
	ratio := slow / fast
	if ratio < 1.25 || ratio > 1.65 {
		t.Fatalf("redis-like 100KB slow/fast runtime ratio = %.2f, want ≈1.4 (Fig 5a)", ratio)
	}
}

func TestSensitivityOrderingAcrossEngines(t *testing.T) {
	// Fig 8b: DynamoDB most sensitive to SlowMem, Memcached least.
	w := smallWorkload(t, ycsb.SizeFixed100KB, 1)
	ratioFor := func(e Engine) float64 {
		run := func(p Placement) float64 {
			cfg := DefaultConfig(e, 1)
			cfg.NoiseSigma = 0
			d := NewDeployment(cfg)
			if err := d.Load(w.Dataset, p); err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, op := range w.Ops {
				total += float64(d.DoIndex(op.Key, op.Kind).Latency)
			}
			return total
		}
		return run(AllSlow()) / run(AllFast())
	}
	redis, memcached, dynamo := ratioFor(RedisLike), ratioFor(MemcachedLike), ratioFor(DynamoLike)
	if !(dynamo > redis && redis > memcached) {
		t.Fatalf("sensitivity ordering broken: dynamo %.2f, redis %.2f, memcached %.2f",
			dynamo, redis, memcached)
	}
	if memcached > 1.10 {
		t.Errorf("memcached-like slowdown %.3f; paper says barely influenced (<10%%)", memcached)
	}
	if dynamo < 2.0 {
		t.Errorf("dynamo-like slowdown %.2f; paper says severely impacted", dynamo)
	}
}

func TestWritesLessAffectedThanReads(t *testing.T) {
	// Fig 5b: write-heavy workloads are less impacted by SlowMem.
	ratioFor := func(readRatio float64) float64 {
		w := smallWorkload(t, ycsb.SizeFixed100KB, readRatio)
		run := func(p Placement) float64 {
			cfg := DefaultConfig(RedisLike, 1)
			cfg.NoiseSigma = 0
			d := NewDeployment(cfg)
			if err := d.Load(w.Dataset, p); err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, op := range w.Ops {
				total += float64(d.DoIndex(op.Key, op.Kind).Latency)
			}
			return total
		}
		return run(AllSlow()) / run(AllFast())
	}
	readonly, writeheavy := ratioFor(1.0), ratioFor(0.0)
	if writeheavy >= readonly {
		t.Fatalf("write-heavy ratio %.3f not below read-only %.3f", writeheavy, readonly)
	}
}

func TestSmallRecordsLessAffected(t *testing.T) {
	// Fig 5c: the knee is bigger for large records.
	ratioFor := func(sizes ycsb.SizeKind) float64 {
		w := smallWorkload(t, sizes, 1)
		run := func(p Placement) float64 {
			cfg := DefaultConfig(RedisLike, 1)
			cfg.NoiseSigma = 0
			cfg.Machine.LLCBytes = 0 // isolate the pure size effect
			d := NewDeployment(cfg)
			if err := d.Load(w.Dataset, p); err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, op := range w.Ops {
				total += float64(d.DoIndex(op.Key, op.Kind).Latency)
			}
			return total
		}
		return run(AllSlow()) / run(AllFast())
	}
	big, small := ratioFor(ycsb.SizeFixed100KB), ratioFor(ycsb.SizeFixed1KB)
	if small >= big {
		t.Fatalf("1KB ratio %.3f not below 100KB ratio %.3f", small, big)
	}
}

func TestLLCAbsorbsHotKeys(t *testing.T) {
	// A single hot small record should be cache-resident after first touch.
	w := smallWorkload(t, ycsb.SizeFixed1KB, 1)
	cfg := DefaultConfig(RedisLike, 1)
	cfg.NoiseSigma = 0
	d := NewDeployment(cfg)
	if err := d.Load(w.Dataset, AllSlow()); err != nil {
		t.Fatal(err)
	}
	first := d.DoIndex(0, kvstore.Read)
	second := d.DoIndex(0, kvstore.Read)
	if first.Hit {
		t.Fatal("cold access hit the LLC")
	}
	if !second.Hit {
		t.Fatal("hot access missed the LLC")
	}
	if second.Latency >= first.Latency {
		t.Fatal("cache hit not faster than miss")
	}
}

func TestNoiseZeroIsDeterministic(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 0.5)
	run := func() int64 {
		cfg := DefaultConfig(DynamoLike, 7)
		cfg.NoiseSigma = 0
		d := NewDeployment(cfg)
		if err := d.Load(w.Dataset, AllSlow()); err != nil {
			t.Fatal(err)
		}
		for _, op := range w.Ops {
			d.DoIndex(op.Key, op.Kind)
		}
		return d.Clock().Nanoseconds()
	}
	if run() != run() {
		t.Fatal("noise-free runs differ")
	}
}

func TestNoiseFactorProperties(t *testing.T) {
	// The factor's moments and quantiles are TestNoiseTableFidelity's.
	n := NewNoise(0.05, 1)
	for i := 0; i < 20000; i++ {
		if f := n.Factor(); !(f > 0) || math.IsInf(f, 0) {
			t.Fatalf("draw %d: noise factor %v not finite and positive", i, f)
		}
	}
	if NewNoise(0, 1).Factor() != 1 {
		t.Fatal("zero-sigma noise not unity")
	}
	var nilNoise *Noise
	if nilNoise.Factor() != 1 || nilNoise.Sigma() != 0 {
		t.Fatal("nil noise not neutral")
	}
	if NewNoise(0.05, 1).Sigma() != 0.05 {
		t.Fatal("sigma accessor wrong")
	}
}

func TestNoisePanicsOnNegativeSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNoise(-0.1, 1)
}
