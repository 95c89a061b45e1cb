package mnemo

import (
	"context"
	"math"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/experiments"
	"mnemo/internal/server"
)

// tinyAPIWorkload is the smallest workload the error-path tests profile.
func tinyAPIWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadSpec{
		Name: "apierr", Keys: 40, Requests: 200,
		Dist:      DistSpec{Kind: Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 1.0, Sizes: SizeThumbnail, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOptionsValidation exercises every Options.validate rejection and
// checks the message names the offending field — descriptive errors are
// part of the contract.
func TestOptionsValidation(t *testing.T) {
	w := tinyAPIWorkload(t)
	cases := []struct {
		name string
		opts Options
		want string // substring the error must contain
	}{
		{"unknown engine", Options{Store: Engine(99)}, "unknown store engine"},
		{"negative runs", Options{Runs: -1}, "Runs"},
		// Rejected before a repetition is allocated: the cap is checked
		// at validation, not discovered by the measurement.
		{"runs far above cap", Options{Runs: 1 << 40, SLO: 0.1}, "Runs 1099511627776 above the cap of 1000"},
		{"price factor above 1", Options{PriceFactor: 1.5}, "PriceFactor"},
		{"negative price factor", Options{PriceFactor: -0.2}, "PriceFactor"},
		{"negative SLO", Options{SLO: -0.1}, "SLO"},
		{"NaN SLO", Options{SLO: math.NaN()}, "SLO"},
		{"NaN price factor", Options{PriceFactor: math.NaN(), SLO: 0.1}, "PriceFactor"},
		{"negative shards", Options{Shards: -1}, "Shards"},
		{"shards above max", Options{Shards: 257}, "Shards"},
		{"negative epoch ops", Options{EpochOps: -1}, "EpochOps"},
		{"negative migration cost", Options{MigrationCostPerByte: -0.5}, "MigrationCostPerByte"},
		{"negative migration budget", Options{MigrationBudget: -64}, "MigrationBudget"},
		{"migration cost without epochs", Options{MigrationCostPerByte: 0.1}, "EpochOps ≥ 1"},
		{"migration budget without epochs", Options{MigrationBudget: 4096}, "EpochOps ≥ 1"},
		// A NaN cost made migration silently free, and +Inf panicked the
		// clock mid-run; NaN also slips past the EpochOps pairing rule.
		{"NaN migration cost", Options{MigrationCostPerByte: math.NaN(), EpochOps: 4096, Policy: "adaptive-freq"}, "MigrationCostPerByte"},
		{"infinite migration cost", Options{MigrationCostPerByte: math.Inf(1), EpochOps: 4096, Policy: "adaptive-freq"}, "MigrationCostPerByte"},
		{"NaN migration cost without epochs", Options{MigrationCostPerByte: math.NaN()}, "MigrationCostPerByte"},
		{"epochs on static-only policy", Options{EpochOps: 4096, Policy: "mnemot"}, "static-only"},
		{"epochs on default policy", Options{EpochOps: 4096}, "static-only"},
		{"epochs on unknown policy", Options{EpochOps: 4096, Policy: "no_such"}, "unknown policy"},
		{"unknown policy param", Options{Policy: "freqdecay", PolicyParams: map[string]float64{"rate": 3}}, `unknown param "rate"`},
		{"param below min", Options{Policy: "freqdecay", PolicyParams: map[string]float64{"decay": 0}}, "outside [0.01,1]"},
		{"param above max", Options{Policy: "knapsack", PolicyParams: map[string]float64{"rungs": 9}}, "outside [1,6]"},
		{"fractional integer param", Options{Policy: "freqdecay", PolicyParams: map[string]float64{"epochs": 2.5}}, "must be an integer"},
		{"params on fixed policy", Options{Policy: "mnemot", PolicyParams: map[string]float64{"decay": 0.5}}, "no tunable parameters"},
		{"params on default policy", Options{PolicyParams: map[string]float64{"decay": 0.5}}, "no tunable parameters"},
		{"NaN noise sigma", Options{NoiseSigma: math.NaN()}, "NoiseSigma"},
		{"infinite noise sigma", Options{NoiseSigma: math.Inf(1)}, "NoiseSigma"},
		{"negative infinite noise sigma", Options{NoiseSigma: math.Inf(-1)}, "NoiseSigma"},
		// σ = 20 overflowed the clock into "baselines not measured".
		{"noise sigma above cap", Options{NoiseSigma: 20}, "NoiseSigma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Profile(w, tc.opts); err == nil {
				t.Fatalf("options %+v accepted", tc.opts)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// PriceFactor 1 is the edge of the legal (0,1] range, and
	// MaxNoiseSigma of NoiseSigma's.
	if _, err := Profile(w, Options{PriceFactor: 1}); err != nil {
		t.Fatalf("PriceFactor 1 rejected: %v", err)
	}
	if _, err := Profile(w, Options{NoiseSigma: server.MaxNoiseSigma}); err != nil {
		t.Fatalf("NoiseSigma %v rejected: %v", server.MaxNoiseSigma, err)
	}
}

// TestKnobTableThreeEntryPoints drives one table of bad run-knob values
// through the three places a run knob is set: Options (via Profile),
// experiments.Scale and core.Config. Every entry point that exposes a
// knob must reject it with an error naming the same exported field —
// the rule is written once, in core.Config.Validate and the
// server.Config.Validate it calls.
func TestKnobTableThreeEntryPoints(t *testing.T) {
	w := tinyAPIWorkload(t)
	type (
		optsMut  func(*Options)
		scaleMut func(*experiments.Scale)
		coreMut  func(*core.Config)
	)
	cases := []struct {
		name, want string
		opts       optsMut
		scale      scaleMut // nil: experiments.Scale does not expose the knob
		core       coreMut
	}{
		{"runs", "Runs",
			func(o *Options) { o.Runs = -1 },
			func(s *experiments.Scale) { s.Runs = -1 },
			func(c *core.Config) { c.Runs = -1 }},
		{"runs above cap", "Runs",
			func(o *Options) { o.Runs = core.MaxRuns + 1 },
			func(s *experiments.Scale) { s.Runs = core.MaxRuns + 1 },
			func(c *core.Config) { c.Runs = core.MaxRuns + 1 }},
		{"price factor", "PriceFactor",
			func(o *Options) { o.PriceFactor = 1.5 },
			nil,
			func(c *core.Config) { c.PriceFactor = 1.5 }},
		{"NaN price factor", "PriceFactor",
			func(o *Options) { o.PriceFactor = math.NaN() },
			nil,
			func(c *core.Config) { c.PriceFactor = math.NaN() }},
		{"shards", "Shards",
			func(o *Options) { o.Shards = 257 },
			func(s *experiments.Scale) { s.Shards = 257 },
			func(c *core.Config) { c.Server.Shards = 257 }},
		{"epoch ops", "EpochOps",
			func(o *Options) { o.EpochOps = -1 },
			func(s *experiments.Scale) { s.EpochOps = -1 },
			func(c *core.Config) { c.Server.EpochOps = -1 }},
		{"migration cost", "MigrationCostPerByte",
			func(o *Options) { o.MigrationCostPerByte = -0.5 },
			func(s *experiments.Scale) { s.MigrationCostPerByte = -0.5 },
			func(c *core.Config) { c.Server.MigrationCostPerByte = -0.5 }},
		{"migration budget", "MigrationBudget",
			func(o *Options) { o.MigrationBudget = -1 },
			func(s *experiments.Scale) { s.MigrationBudget = -1 },
			func(c *core.Config) { c.Server.MigrationBudget = -1 }},
		{"NaN migration cost", "MigrationCostPerByte",
			func(o *Options) { o.MigrationCostPerByte = math.NaN() },
			func(s *experiments.Scale) { s.MigrationCostPerByte = math.NaN() },
			func(c *core.Config) { c.Server.MigrationCostPerByte = math.NaN() }},
		{"noise sigma", "NoiseSigma",
			func(o *Options) { o.NoiseSigma = math.NaN() },
			nil,
			func(c *core.Config) { c.Server.NoiseSigma = -0.5 }},
		{"noise sigma above cap", "NoiseSigma",
			func(o *Options) { o.NoiseSigma = server.MaxNoiseSigma * 2 },
			nil,
			func(c *core.Config) { c.Server.NoiseSigma = server.MaxNoiseSigma * 2 }},
	}
	check := func(t *testing.T, entry string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted the bad knob", entry)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s error %q does not mention %q", entry, err, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts Options
			tc.opts(&opts)
			_, err := Profile(w, opts)
			check(t, "Profile", err, tc.want)

			cfg := core.DefaultConfig(server.RedisLike, 1)
			tc.core(&cfg)
			check(t, "core.Config.Validate", cfg.Validate(), tc.want)

			if tc.scale != nil {
				s := experiments.Quick
				tc.scale(&s)
				check(t, "experiments.Scale.Validate", s.Validate(), tc.want)
			}
		})
	}
}

// TestTuneOptionErrors exercises the Tune entry point's rejections —
// both its own option checks and the search config validation below it.
func TestTuneOptionErrors(t *testing.T) {
	w := tinyAPIWorkload(t)
	ctx := context.Background()
	cases := []struct {
		name  string
		opts  Options
		topts TuneOptions
		want  string
	}{
		{"missing SLO", Options{}, TuneOptions{}, "SLO"},
		{"policy pinned", Options{SLO: 0.1, Policy: "mnemot"}, TuneOptions{}, "TuneOptions.Policies"},
		{"params pinned", Options{SLO: 0.1, PolicyParams: map[string]float64{"decay": 0.5}}, TuneOptions{}, "TuneOptions.Policies"},
		{"adaptive measurement", Options{SLO: 0.1, EpochOps: 4096}, TuneOptions{}, "statically"},
		{"bad measurement opts", Options{SLO: 0.1, Runs: -1}, TuneOptions{}, "Runs"},
		{"negative budget", Options{SLO: 0.1}, TuneOptions{Budget: -1}, "Budget"},
		{"excess budget", Options{SLO: 0.1}, TuneOptions{Budget: 1 << 30}, "above the cap"},
		{"negative workers", Options{SLO: 0.1}, TuneOptions{Workers: -1}, "Workers"},
		{"unknown search policy", Options{SLO: 0.1}, TuneOptions{Policies: []string{"nope"}}, "unknown policy"},
		{"duplicate search policy", Options{SLO: 0.1}, TuneOptions{Policies: []string{"touch", "touch"}}, "listed twice"},
		{"budget below policies", Options{SLO: 0.1}, TuneOptions{Budget: 3}, "below the 8 policies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Tune(ctx, w, tc.opts, tc.topts); err == nil {
				t.Fatalf("options %+v / %+v accepted", tc.opts, tc.topts)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// TuneWithSpec validates the recipe too.
	if _, _, err := TuneWithSpec(ctx, TuneWorkloadRecipe{Name: "no_such"}, Options{SLO: 0.1}, TuneOptions{}); err == nil {
		t.Fatal("unknown recipe accepted by TuneWithSpec")
	}
}

func TestProfileWithTieringErrors(t *testing.T) {
	w := tinyAPIWorkload(t)
	if _, err := ProfileWithTiering(w, []string{"no_such_key"}, Options{}); err == nil {
		t.Fatal("unknown tiered key accepted")
	}
	if _, err := ProfileWithTiering(w, []string{"user0", "user0"}, Options{}); err == nil {
		t.Fatal("repeated tiered key accepted")
	}
	if _, err := ProfileWithTiering(w, nil, Options{Runs: -1}); err == nil {
		t.Fatal("bad options accepted by ProfileWithTiering")
	}
}

func TestAdvisorErrors(t *testing.T) {
	if _, err := Advise(&Curve{}, 0.1); err == nil {
		t.Error("empty curve accepted by Advise")
	}
	if _, err := AdviseLatency(&Curve{}, 100); err == nil {
		t.Error("empty curve accepted by AdviseLatency")
	}
	w := tinyAPIWorkload(t)
	rep, err := Profile(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(rep.Curve, -0.1); err == nil {
		t.Error("negative slowdown accepted")
	}
	if _, err := AdviseLatency(rep.Curve, 0); err == nil {
		t.Error("non-positive latency budget accepted")
	}
	if _, err := Advise(rep.Curve, math.NaN()); err == nil {
		t.Error("NaN slowdown accepted")
	}
	if _, err := AdviseLatency(rep.Curve, math.NaN()); err == nil {
		t.Error("NaN latency budget accepted")
	}
	if _, err := EstimateTails(rep, []int{-1}); err == nil {
		t.Error("negative sizing accepted by EstimateTails")
	}
	if _, err := EstimateTails(rep, []int{len(w.Dataset.Records) + 1}); err == nil {
		t.Error("oversized sizing accepted by EstimateTails")
	}
}

func TestWorkloadLoaderErrors(t *testing.T) {
	if _, err := WorkloadByName("no_such_workload", 1); err == nil {
		t.Error("unknown workload name accepted")
	}
	if _, err := GenerateWorkload(WorkloadSpec{Name: "bad", Keys: -1, Requests: 10}); err == nil {
		t.Error("negative key count accepted")
	}
	if _, err := LoadWorkloadCSV(strings.NewReader("not a workload")); err == nil {
		t.Error("garbage CSV accepted")
	}
	if _, err := LoadRedisMonitor(strings.NewReader("no commands here"), 64); err == nil {
		t.Error("command-free capture accepted")
	}
	if _, err := LoadRedisMonitor(strings.NewReader(`1.0 [0 x] "GET" "k"`+"\n"), 0); err == nil {
		t.Error("zero default size accepted")
	}
}

func TestCostModelErrors(t *testing.T) {
	if _, err := PriceFactorFromHardware(0, 5); err == nil {
		t.Error("zero slow price accepted")
	}
	if _, err := PriceFactorFromHardware(5, 0); err == nil {
		t.Error("zero fast price accepted")
	}
	if _, err := PriceFactorFromHardware(7, 5); err == nil {
		t.Error("slow dearer than fast accepted")
	}
	if _, err := PriceFactorFromHardware(math.NaN(), 1); err == nil {
		t.Error("NaN slow price accepted")
	}
	if _, err := PriceFactorFromHardware(1, math.NaN()); err == nil {
		t.Error("NaN fast price accepted")
	}
	if _, err := core.NewEstimateEngine(math.NaN()); err == nil {
		t.Error("NaN price factor accepted by the estimate engine")
	}
}

func TestProfileMatrixRequestErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{
		Workloads: []string{"trending"},
		Engines:   []Engine{RedisLike, RedisLike},
	}); err == nil {
		t.Error("duplicate engine accepted")
	}
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{
		Workloads: []string{"trending", "trending"},
	}); err == nil {
		t.Error("duplicate workload name accepted")
	}
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{
		Workloads: []string{"no_such_workload"},
	}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{
		Specs: []WorkloadSpec{{Name: "bad", Keys: -1, Requests: 10}},
	}); err == nil {
		t.Error("invalid spec accepted")
	}
	spec := tinyAPIWorkload(t).Spec
	if _, err := ProfileMatrixContext(ctx, MatrixRequest{
		Workloads: []string{"trending"},
		Specs:     []WorkloadSpec{func() WorkloadSpec { s := spec; s.Name = "trending"; return s }()},
	}); err == nil {
		t.Error("spec name colliding with workload name accepted")
	}
}
