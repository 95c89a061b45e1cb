package memsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTierString(t *testing.T) {
	if Fast.String() != "FastMem" || Slow.String() != "SlowMem" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Fatal("unknown tier should still format")
	}
}

func TestTableIRatios(t *testing.T) {
	// Table I: SlowMem has 3.62x latency and 0.12x bandwidth of FastMem.
	latRatio := SlowMemParams.LatencyNs / FastMemParams.LatencyNs
	bwRatio := SlowMemParams.BandwidthGBps / FastMemParams.BandwidthGBps
	if math.Abs(latRatio-3.62) > 0.01 {
		t.Errorf("latency ratio = %.3f, want 3.62", latRatio)
	}
	if math.Abs(bwRatio-0.12) > 0.005 {
		t.Errorf("bandwidth ratio = %.3f, want 0.12", bwRatio)
	}
}

func TestTransferAndChaseCosts(t *testing.T) {
	p := NodeParams{LatencyNs: 100, BandwidthGBps: 1}
	if got := p.ChaseNs(3); got != 300 {
		t.Errorf("ChaseNs(3) = %v, want 300", got)
	}
	if got := p.ChaseNs(0); got != 0 {
		t.Errorf("ChaseNs(0) = %v", got)
	}
	if got := p.ChaseNs(-1); got != 0 {
		t.Errorf("ChaseNs(-1) = %v", got)
	}
	// 1 GiB at 1 GB/s(GiB-based) = 1e9 ns.
	if got := p.TransferNs(1 << 30); math.Abs(got-1e9) > 1 {
		t.Errorf("TransferNs(1GiB) = %v, want 1e9", got)
	}
	if got := p.TransferNs(0); got != 0 {
		t.Errorf("TransferNs(0) = %v", got)
	}
	if got := p.AccessNs(2, 0); got != 200 {
		t.Errorf("AccessNs = %v", got)
	}
}

func TestNodeCapacityAccounting(t *testing.T) {
	n := NewNode(FastMemParams, 100)
	if err := n.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := n.Alloc(50); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-alloc err = %v, want ErrNoCapacity", err)
	}
	if n.Used() != 60 {
		t.Fatalf("Used = %d, want 60 after failed alloc", n.Used())
	}
	n.Free(20)
	if n.Used() != 40 {
		t.Fatalf("Used = %d after free", n.Used())
	}
	n.Free(1000) // over-free clamps at zero
	if n.Used() != 0 {
		t.Fatalf("Used = %d, want 0", n.Used())
	}
	if n.Capacity() != 100 {
		t.Fatal("Capacity accessor wrong")
	}
}

func TestNodeUnlimitedCapacity(t *testing.T) {
	n := NewNode(SlowMemParams, 0)
	if err := n.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited node rejected alloc: %v", err)
	}
}

func TestNodePanics(t *testing.T) {
	n := NewNode(FastMemParams, 10)
	for _, fn := range []func(){
		func() { NewNode(FastMemParams, -1) },
		func() { _ = n.Alloc(-1) },
		func() { n.Free(-1) },
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

func TestMachineTouchMissThenHit(t *testing.T) {
	m := NewMachine(DefaultConfig())
	rec := RecordRef{ID: 1, Bytes: 4096}
	if m.TouchHit(rec) {
		t.Fatal("first touch should miss")
	}
	if !m.TouchHit(rec) {
		t.Fatal("second touch should hit")
	}
}

func TestMachineCostTiers(t *testing.T) {
	m := NewMachine(DefaultConfig())
	fast := m.Node(Fast).Params.AccessNs(1, 100<<10)
	slow := m.Node(Slow).Params.AccessNs(1, 100<<10)
	if slow <= fast {
		t.Fatalf("slow access (%.0f ns) should cost more than fast (%.0f ns)", slow, fast)
	}
	// One 238.1 ns chase plus 100 KiB at 1.81 GB/s (≈52.7 µs).
	if wantSlow := 238.1 + 102400/(1.81*1.073741824); math.Abs(slow-wantSlow) > 1 {
		t.Errorf("slow cost %.0f, want %.0f", slow, wantSlow)
	}
}

func TestMachineCostCacheHitCheap(t *testing.T) {
	m := NewMachine(DefaultConfig())
	rec := RecordRef{ID: 7, Bytes: 64 << 10}
	if m.TouchHit(rec) || !m.TouchHit(rec) {
		t.Fatal("want a miss, then a hit")
	}
	miss := m.Node(Slow).Params.AccessNs(1, rec.Bytes)
	hit := LLCParams.AccessNs(1, rec.Bytes)
	if hit >= miss/10 {
		t.Fatalf("cache hit %.0f ns not ≪ miss %.0f ns", hit, miss)
	}
}

func TestMachineInvalidate(t *testing.T) {
	m := NewMachine(DefaultConfig())
	rec := RecordRef{ID: 5, Bytes: 1024}
	m.TouchHit(rec)
	m.Invalidate(rec)
	if m.TouchHit(rec) {
		t.Fatal("invalidated record still hit")
	}
}

func TestMachineNoLLC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBytes = 0
	m := NewMachine(cfg)
	if m.LLC() != nil {
		t.Fatal("LLC should be disabled")
	}
	rec := RecordRef{ID: 1, Bytes: 1024}
	m.TouchHit(rec)
	if m.TouchHit(rec) {
		t.Fatal("hit without a cache model")
	}
	m.Invalidate(rec) // must not panic
}

func TestMachineNodeAccessor(t *testing.T) {
	m := NewMachine(DefaultConfig())
	if m.Node(Fast).Params.Name != "FastMem" || m.Node(Slow).Params.Name != "SlowMem" {
		t.Fatal("Node accessor returned wrong node")
	}
}

func TestCalibrateReproducesTableI(t *testing.T) {
	m := NewMachine(DefaultConfig())
	for _, tc := range []struct {
		tier    Tier
		wantLat float64
		wantBW  float64
	}{
		{Fast, 65.7, 14.9},
		{Slow, 238.1, 1.81},
	} {
		c := m.Calibrate(tc.tier)
		if math.Abs(c.LatencyNs-tc.wantLat) > 0.01 {
			t.Errorf("%v latency = %.2f, want %.2f", tc.tier, c.LatencyNs, tc.wantLat)
		}
		if math.Abs(c.BandwidthGBps-tc.wantBW) > 0.01 {
			t.Errorf("%v bandwidth = %.2f, want %.2f", tc.tier, c.BandwidthGBps, tc.wantBW)
		}
	}
}

func TestSlowTierPresets(t *testing.T) {
	tiers := SlowTiers()
	if len(tiers) < 4 {
		t.Fatalf("only %d slow-tier presets", len(tiers))
	}
	if tiers[0].Params != SlowMemParams || tiers[0].PriceFactor != 0.2 {
		t.Error("first preset must be the paper's emulated NVM at p=0.2")
	}
	names := map[string]bool{}
	for _, tier := range tiers {
		if tier.Params.LatencyNs <= FastMemParams.LatencyNs {
			t.Errorf("%s latency %.0f not above DRAM", tier.Params.Name, tier.Params.LatencyNs)
		}
		if tier.Params.BandwidthGBps <= 0 {
			t.Errorf("%s has no bandwidth", tier.Params.Name)
		}
		if tier.PriceFactor <= 0 || tier.PriceFactor >= 1 {
			t.Errorf("%s price factor %v outside (0,1)", tier.Params.Name, tier.PriceFactor)
		}
		if names[tier.Params.Name] {
			t.Errorf("duplicate preset %s", tier.Params.Name)
		}
		names[tier.Params.Name] = true
	}
}

// Property: cost is monotone in bytes and chases.
func TestCostMonotoneProperty(t *testing.T) {
	p := SlowMemParams
	f := func(b1, b2 uint16, c1, c2 uint8) bool {
		bytesLo, bytesHi := int(b1), int(b1)+int(b2)
		chLo, chHi := int(c1), int(c1)+int(c2)
		return p.AccessNs(chLo, bytesLo) <= p.AccessNs(chHi, bytesHi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
