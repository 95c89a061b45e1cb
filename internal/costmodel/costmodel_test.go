package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCostReductionEndpoints(t *testing.T) {
	// Table II: all-FastMem → 1, all-SlowMem → p.
	if got := CostReduction(100, 100, 0.2); got != 1 {
		t.Errorf("all-fast R = %v, want 1", got)
	}
	if got := CostReduction(0, 100, 0.2); got != 0.2 {
		t.Errorf("all-slow R = %v, want 0.2", got)
	}
	// p = 1 (SlowMem priced like FastMem) is the degenerate boundary of
	// the legal (0,1] range: cost reduction vanishes everywhere.
	if got := CostReduction(30, 100, 1); got != 1 {
		t.Errorf("R at p=1 = %v, want 1", got)
	}
}

func TestCostReductionMotivatingExample(t *testing.T) {
	// §III: FastMem sized to 20% of bytes → cost is 36% of FastMem-only.
	got := CostReduction(20, 100, 0.2)
	if math.Abs(got-0.36) > 1e-12 {
		t.Fatalf("R(20%%) = %v, want 0.36", got)
	}
}

func TestCostReductionPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { CostReduction(0, 0, 0.2) },
		func() { CostReduction(-1, 100, 0.2) },
		func() { CostReduction(101, 100, 0.2) },
		func() { CostReduction(50, 100, 0) },
		func() { CostReduction(50, 100, 1.5) },
		func() { CostReduction(50, 100, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCostReductionMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := int64(a), int64(a)+int64(b)
		total := hi + 1
		return CostReduction(lo, total, 0.2) <= CostReduction(hi, total, 0.2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableII(t *testing.T) {
	rows := TableII(1000, 0.2)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].CostReduction != 1 || rows[2].CostReduction != 0.2 {
		t.Fatalf("endpoint reductions: %+v", rows)
	}
	if rows[1].CostReduction <= 0.2 || rows[1].CostReduction >= 1 {
		t.Fatalf("in-between reduction %v not interior", rows[1].CostReduction)
	}
	for _, r := range rows {
		if r.FastBytes+r.SlowBytes != 1000 {
			t.Errorf("%s: bytes don't sum", r.Name)
		}
	}
}

func TestFitRecoversKnownCoefficients(t *testing.T) {
	// Synthetic provider priced exactly at C=0.05/vCPU, M=0.008/GB.
	var insts []VMInstance
	shapes := []struct{ v, g float64 }{{2, 4}, {4, 16}, {8, 64}, {16, 32}, {32, 256}}
	for _, s := range shapes {
		insts = append(insts, VMInstance{Provider: "test", VCPU: s.v, MemGB: s.g,
			HourlyUSD: 0.05*s.v + 0.008*s.g})
	}
	c, err := Fit(insts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.CPerVCPU-0.05) > 1e-9 || math.Abs(c.MPerGB-0.008) > 1e-9 {
		t.Fatalf("coefficients = %+v", c)
	}
	if c.RSS > 1e-12 {
		t.Errorf("rss = %v on exact data", c.RSS)
	}
	if c.Instances != 5 {
		t.Errorf("instances = %d", c.Instances)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty catalog accepted")
	}
	// Collinear shapes: vCPU:GB ratio constant → singular normal matrix.
	collinear := []VMInstance{
		{Provider: "x", VCPU: 1, MemGB: 4, HourlyUSD: 0.1},
		{Provider: "x", VCPU: 2, MemGB: 8, HourlyUSD: 0.2},
		{Provider: "x", VCPU: 4, MemGB: 16, HourlyUSD: 0.4},
	}
	if _, err := Fit(collinear); err == nil {
		t.Error("collinear catalog accepted")
	}
}

func TestProvidersCatalogsSane(t *testing.T) {
	for _, p := range Providers() {
		insts := Instances(p)
		if len(insts) < 5 {
			t.Errorf("%s: catalog too small (%d)", p, len(insts))
		}
		memOpt := 0
		for _, in := range insts {
			if in.VCPU <= 0 || in.MemGB <= 0 || in.HourlyUSD <= 0 {
				t.Errorf("%s/%s: non-positive fields", p, in.Name)
			}
			if in.Provider != p {
				t.Errorf("%s/%s: provider mislabeled", p, in.Name)
			}
			if in.MemoryOptimized {
				memOpt++
			}
		}
		if memOpt == 0 {
			t.Errorf("%s: no memory-optimized instances", p)
		}
	}
	if Instances("nonsense") != nil {
		t.Error("unknown provider returned a catalog")
	}
}

func TestFig1SharesInPaperBand(t *testing.T) {
	rows, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d share rows", len(rows))
	}
	// Fig 1: memory is ~60–85% of memory-optimized VM cost. Allow slack
	// at the band edges for the approximate price tables.
	for _, r := range rows {
		if r.MemoryShare < 0.5 || r.MemoryShare > 0.9 {
			t.Errorf("%s/%s: memory share %.2f outside plausible Fig 1 band",
				r.Provider, r.Instance, r.MemoryShare)
		}
	}
	// At least one instance above 70% (the paper's upper range).
	var high bool
	for _, r := range rows {
		if r.MemoryShare > 0.7 {
			high = true
		}
	}
	if !high {
		t.Error("no instance above 70% memory share")
	}
}

func TestMemoryCostSharePanicsOnBadPrice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MemoryCostShare(VMInstance{Name: "bad"}, Coefficients{})
}

func TestPriceFactorFromHardware(t *testing.T) {
	p, err := PriceFactorFromHardware(2, 10)
	if err != nil || p != 0.2 {
		t.Fatalf("p = %v, err = %v", p, err)
	}
	if _, err := PriceFactorFromHardware(0, 10); err == nil {
		t.Error("zero price accepted")
	}
	if _, err := PriceFactorFromHardware(10, 2); err == nil {
		t.Error("slow dearer than fast accepted")
	}
}
