// Integration tests: the complete consultant loop across every module —
// generate a workload, serialize and reload it, profile it, take the
// advice, materialize the placement on a live deployment, replay the
// trace against it, and verify the *measured* performance honors the SLO
// the advisor promised. This is the end-to-end contract a Mnemo user
// relies on.
package mnemo_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mnemo"
	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
)

// integrationWorkload is small enough for CI but large enough that the
// hot set dwarfs the (scaled) LLC.
func integrationWorkload(t *testing.T, seed int64) *mnemo.Workload {
	t.Helper()
	w, err := mnemo.GenerateWorkload(mnemo.WorkloadSpec{
		Name: "integration", Keys: 1500, Requests: 15000,
		Dist:      mnemo.DistSpec{Kind: mnemo.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: mnemo.SizeThumbnail, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAdvisedPlacementMeetsSLOWhenDeployed(t *testing.T) {
	w := integrationWorkload(t, 101)
	const slo = 0.10

	cfg := core.DefaultConfig(server.RedisLike, 101)
	rep, err := core.Profile(context.Background(), cfg, w, core.Touch, slo)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Advice
	if a.Point.CostFactor >= 1 {
		t.Fatalf("advisor found no savings (cost %.3f)", a.Point.CostFactor)
	}

	// Materialize the placement and actually serve the workload on it.
	placement, err := core.PlacementFor(rep.Ordering, a.Point)
	if err != nil {
		t.Fatal(err)
	}
	runCfg := cfg.Server
	runCfg.Seed += 999 // independent execution, fresh noise
	runs, err := client.Measure(context.Background(), w, 1, 0, runCfg.Obs, []client.Leg{{Cfg: runCfg, Placement: placement}})
	if err != nil {
		t.Fatal(err)
	}
	measured := runs[0]

	// The measured run must honor the SLO against the measured FastMem
	// baseline, with a small tolerance for run-to-run noise.
	fast := rep.Baselines.Fast.ThroughputOpsSec
	floor := fast * (1 - slo) * 0.99
	if measured.ThroughputOpsSec < floor {
		t.Fatalf("deployed placement %.0f ops/s below SLO floor %.0f (fast baseline %.0f)",
			measured.ThroughputOpsSec, floor, fast)
	}

	// And the estimate for that point must match the measurement closely.
	errPct := math.Abs(measured.ThroughputOpsSec-a.Point.EstThroughputOps) /
		measured.ThroughputOpsSec * 100
	if errPct > 2 {
		t.Errorf("advised-point estimate off by %.2f%%", errPct)
	}
}

func TestPlacementEngineRoutesBytesAsAdvised(t *testing.T) {
	w := integrationWorkload(t, 102)
	cfg := core.DefaultConfig(server.MemcachedLike, 102)
	rep, err := core.Profile(context.Background(), cfg, w, core.MnemoT, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := core.PlacementFor(rep.Ordering, rep.Advice.Point)
	if err != nil {
		t.Fatal(err)
	}
	d := server.NewDeployment(cfg.Server)
	if err := d.Load(w.Dataset, placement); err != nil {
		t.Fatal(err)
	}
	fastUsed := d.Machine().Node(memsim.Fast).Used()
	if fastUsed != rep.Advice.Point.FastBytes {
		t.Fatalf("fast node holds %d bytes, advice said %d", fastUsed, rep.Advice.Point.FastBytes)
	}
	slowUsed := d.Machine().Node(memsim.Slow).Used()
	if fastUsed+slowUsed != w.Dataset.TotalBytes {
		t.Fatalf("placed bytes %d != dataset %d", fastUsed+slowUsed, w.Dataset.TotalBytes)
	}
	if got := d.Instance(memsim.Fast).Len() + d.Instance(memsim.Slow).Len(); got != len(w.Dataset.Records) {
		t.Fatalf("placed keys %d != dataset %d", got, len(w.Dataset.Records))
	}
}

func TestWorkloadSurvivesSerializationThroughPipeline(t *testing.T) {
	orig := integrationWorkload(t, 103)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mnemo.LoadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Profiling the serialized+reloaded workload gives identical advice
	// (the descriptor is the trace itself; no generation metadata is
	// needed).
	opts := mnemo.Options{Store: mnemo.RedisLike, Seed: 103, SLO: 0.10}
	a, err := mnemo.Profile(orig, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mnemo.Profile(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Advice.Point.KeysInFast != b.Advice.Point.KeysInFast {
		t.Fatalf("advice differs after round trip: %d vs %d keys",
			a.Advice.Point.KeysInFast, b.Advice.Point.KeysInFast)
	}
	if a.Advice.Point.FastBytes != b.Advice.Point.FastBytes {
		t.Fatal("advised capacity differs after round trip")
	}
}

func TestExternalTieringPipeline(t *testing.T) {
	// Mode 2b end to end: a deliberately *bad* external ordering (cold
	// keys first) must yield strictly worse advice than MnemoT, and Mnemo
	// must still estimate it accurately — the tool is a consultant, not a
	// critic.
	w := integrationWorkload(t, 104)
	reads, writes := w.AccessCounts()
	// Order keys by ascending access count: pessimal for FastMem.
	type kc struct{ idx, acc int }
	order := make([]kc, len(reads))
	for i := range reads {
		order[i] = kc{i, reads[i] + writes[i]}
	}
	for i := 1; i < len(order); i++ { // insertion sort by ascending count
		for j := i; j > 0 && order[j].acc < order[j-1].acc; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	cold := make([]string, len(order))
	for i, o := range order {
		cold[i] = w.Dataset.Records[o.idx].Key
	}

	opts := mnemo.Options{Store: mnemo.RedisLike, Seed: 104, SLO: 0.10}
	bad, err := mnemo.ProfileWithTiering(w, cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	good, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 104, SLO: 0.10, Policy: "mnemot"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Advice.Point.CostFactor <= good.Advice.Point.CostFactor {
		t.Fatalf("cold-first ordering advised cost %.3f not above MnemoT %.3f",
			bad.Advice.Point.CostFactor, good.Advice.Point.CostFactor)
	}
	// Accuracy holds even for the bad ordering.
	cfg := core.DefaultConfig(server.RedisLike, 104)
	ord, err := core.ExternalOrdering(w, cold)
	if err != nil {
		t.Fatal(err)
	}
	points, err := core.Validate(context.Background(), cfg, w, bad.Curve, ord, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if math.Abs(p.ThroughputErrPct) > 3 {
			t.Errorf("estimate error %.2f%% at k=%d on external ordering",
				p.ThroughputErrPct, p.Point.KeysInFast)
		}
	}
}

func TestEnginesShareOneWorkloadDeterministically(t *testing.T) {
	// The same descriptor profiles on all three engines without
	// interference, and repeated profiling is bit-identical.
	w := integrationWorkload(t, 105)
	for _, e := range mnemo.Engines() {
		r1, err := mnemo.Profile(w, mnemo.Options{Store: e, Seed: 105})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		r2, err := mnemo.Profile(w, mnemo.Options{Store: e, Seed: 105})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Baselines.Fast.Runtime != r2.Baselines.Fast.Runtime ||
			r1.Baselines.Slow.Runtime != r2.Baselines.Slow.Runtime {
			t.Errorf("%v: repeated profiling differs", e)
		}
	}
}

func TestSizeAwareOptionThreadsThroughFacade(t *testing.T) {
	w, err := mnemo.GenerateWorkload(mnemo.WorkloadSpec{
		Name: "mixed", Keys: 800, Requests: 8000,
		Dist:      mnemo.DistSpec{Kind: mnemo.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: mnemo.SizeTrendingPreview, Seed: 106,
	})
	if err != nil {
		t.Fatal(err)
	}
	global, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 106, Policy: "mnemot"})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 106, Policy: "mnemot",
		SizeAwareEstimate: true})
	if err != nil {
		t.Fatal(err)
	}
	// The two models must disagree somewhere in the interior (they use
	// different penalties) while sharing both endpoints.
	if global.Curve.FastOnly().EstRuntime != aware.Curve.FastOnly().EstRuntime {
		t.Error("fast endpoints should coincide")
	}
	differs := false
	for k := 1; k < len(global.Curve.Points)-1; k++ {
		if global.Curve.Points[k].EstRuntime != aware.Curve.Points[k].EstRuntime {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("size-aware estimate identical to global on mixed sizes")
	}
}
