package server

import (
	"errors"
	"testing"

	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

func faultWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "fault", Keys: 64, Requests: 512,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runAll(t *testing.T, cfg Config, w *ycsb.Workload) simclock.Duration {
	t.Helper()
	d := NewDeployment(cfg)
	if err := d.InjectedFailure(); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(w.Dataset, AllFast()); err != nil {
		t.Fatal(err)
	}
	for _, op := range w.Ops {
		d.DoIndex(op.Key, op.Kind)
	}
	return d.Clock()
}

func TestFaultSpecValidate(t *testing.T) {
	good := []FaultSpec{
		{},
		{FailProb: 1, StallProb: 0.5, OutlierProb: 0.25, Seed: 3},
		{OutlierFactor: 100, Stall: simclock.Second, StallWindowOps: 10},
		{CrashProb: 1, StallWindowOps: 16},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", f, err)
		}
	}
	bad := []FaultSpec{
		{FailProb: -0.1},
		{StallProb: 1.5},
		{OutlierProb: 2},
		{OutlierFactor: -1},
		{Stall: -simclock.Second},
		{StallWindowOps: -1},
		{CrashProb: -0.5},
		{CrashProb: 1.5},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("%+v: accepted", f)
		}
	}
}

func TestFaultRollDeterministic(t *testing.T) {
	spec := FaultSpec{Seed: 11, FailProb: 0.3, StallProb: 0.3, OutlierProb: 0.3}
	for seed := int64(0); seed < 200; seed++ {
		a, b := spec.roll(seed), spec.roll(seed)
		if a != b {
			t.Fatalf("seed %d: roll not deterministic: %+v vs %+v", seed, a, b)
		}
	}
}

func TestFaultRollZeroSpecIsInert(t *testing.T) {
	var spec FaultSpec
	for seed := int64(0); seed < 50; seed++ {
		if plan := spec.roll(seed); plan != inertPlan() {
			t.Fatalf("zero spec rolled %+v", plan)
		}
	}
}

func TestFaultRollCoversAllKinds(t *testing.T) {
	spec := FaultSpec{Seed: 7, FailProb: 0.25, StallProb: 0.25, OutlierProb: 0.25}
	var fails, stalls, outliers, clean int
	for seed := int64(0); seed < 400; seed++ {
		plan := spec.roll(seed)
		switch {
		case plan.fail:
			fails++
		case plan.stallAt >= 0:
			stalls++
		case plan.factor != 1:
			outliers++
		default:
			clean++
		}
	}
	if fails == 0 || stalls == 0 || outliers == 0 || clean == 0 {
		t.Fatalf("fault mix degenerate: fail=%d stall=%d outlier=%d clean=%d",
			fails, stalls, outliers, clean)
	}
}

// TestFaultRollShardClassesCovered extends the mix check to the crash
// class: crash plans occur, each carries an in-window op index, and
// they leave the latency factor alone.
func TestFaultRollShardClassesCovered(t *testing.T) {
	spec := FaultSpec{Seed: 7, CrashProb: 0.3, StallWindowOps: 128}
	var crashes, clean int
	for seed := int64(0); seed < 400; seed++ {
		plan := spec.roll(seed)
		switch {
		case plan.crashAt >= 0:
			crashes++
			if plan.crashAt >= 128 || plan.factor != 1 {
				t.Fatalf("seed %d: crash plan %+v outside the 128-op window or inflated", seed, plan)
			}
		default:
			clean++
		}
	}
	if crashes == 0 || clean == 0 {
		t.Fatalf("crash fault mix degenerate: crash=%d clean=%d", crashes, clean)
	}
}

// TestFaultRollLegacySchedulePreserved pins the draw-order invariant:
// the crash class draws after the other three, so enabling it must not
// change which runs fail, stall or complete as outliers — existing
// seeded fault schedules stay bit-identical.
func TestFaultRollLegacySchedulePreserved(t *testing.T) {
	legacy := FaultSpec{Seed: 11, FailProb: 0.25, StallProb: 0.25, OutlierProb: 0.25}
	extended := legacy
	extended.CrashProb = 0.5
	for seed := int64(0); seed < 400; seed++ {
		a, b := legacy.roll(seed), extended.roll(seed)
		if a.fail || a.stallAt >= 0 || a.factor != 1 {
			if a != b {
				t.Fatalf("seed %d: legacy fate changed: %+v vs %+v", seed, a, b)
			}
		}
	}
}

func TestInjectedFailureIsTyped(t *testing.T) {
	cfg := DefaultConfig(RedisLike, 1)
	cfg.Fault = FaultSpec{Seed: 2, FailProb: 1}
	d := NewDeployment(cfg)
	err := d.InjectedFailure()
	var ferr *FaultError
	if !errors.As(err, &ferr) {
		t.Fatalf("err = %v (%T), want *FaultError", err, err)
	}
	if ferr.Kind != FaultFail || ferr.Seed != cfg.Seed {
		t.Fatalf("fault error = %+v", ferr)
	}
}

func TestOutlierFaultInflatesRuntime(t *testing.T) {
	w := faultWorkload(t)
	cfg := DefaultConfig(RedisLike, 21)
	healthy := runAll(t, cfg, w)

	cfg.Fault = FaultSpec{Seed: 3, OutlierProb: 1, OutlierFactor: 50}
	outlier := runAll(t, cfg, w)
	if outlier < 10*healthy {
		t.Fatalf("outlier run %v not inflated vs healthy %v", outlier, healthy)
	}
}

func TestStallFaultJumpsClock(t *testing.T) {
	w := faultWorkload(t)
	cfg := DefaultConfig(RedisLike, 22)
	healthy := runAll(t, cfg, w)

	cfg.Fault = FaultSpec{Seed: 4, StallProb: 1, Stall: 30 * simclock.Second, StallWindowOps: 256}
	stalled := runAll(t, cfg, w)
	if stalled < healthy+30*simclock.Second {
		t.Fatalf("stalled run %v missing the 30s jump (healthy %v)", stalled, healthy)
	}
}

func TestZeroFaultSpecBitIdentical(t *testing.T) {
	w := faultWorkload(t)
	cfg := DefaultConfig(DynamoLike, 23)
	base := runAll(t, cfg, w)
	cfg.Fault = FaultSpec{} // explicitly zero
	again := runAll(t, cfg, w)
	if base != again {
		t.Fatalf("zero fault spec changed the clock: %v vs %v", base, again)
	}
}

func TestFaultStringers(t *testing.T) {
	for _, k := range []FaultKind{FaultFail, FaultStall, FaultOutlier, FaultCrash, FaultKind(99)} {
		if k.String() == "" {
			t.Fatalf("empty String for %d", int(k))
		}
	}
	e := &FaultError{Kind: FaultStall, Seed: 9}
	if e.Error() == "" {
		t.Fatal("empty FaultError message")
	}
}
