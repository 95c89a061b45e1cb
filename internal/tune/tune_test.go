package tune

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/core"
	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

func tuneWorkload(t *testing.T) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.Spec{
		Name: "tune-test", Keys: 150, Requests: 3000, Seed: 9,
		ReadRatio: 0.9,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		Sizes:     ycsb.SizeTrendingPreview,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func tuneConfig() Config {
	return Config{Core: core.DefaultConfig(server.RedisLike, 42), SLO: 0.10}
}

// stripped clears the unexported curve pointers so evaluation slices
// compare by value.
func stripped(evals []Eval) []Eval {
	out := make([]Eval, len(evals))
	copy(out, evals)
	for i := range out {
		out[i].curve = nil
	}
	return out
}

// The memoized sweep must be bit-identical to the frozen naive
// pipeline — evaluations, curve CSV bytes and advised cost — across
// policies with and without parameter vectors (S4).
func TestSweepMatchesNaiveBitIdentical(t *testing.T) {
	w := tuneWorkload(t)
	cfg := tuneConfig()
	ctx := context.Background()
	cands := []Candidate{
		{Policy: "touch"},
		{Policy: "mnemot"},
		{Policy: "knapsack"},
		{Policy: "knapsack", Params: map[string]float64{"anchor": 0.2}},
		{Policy: "freqdecay", Params: map[string]float64{"decay": 0.25}},
		{Policy: "pagesample", Params: map[string]float64{"rate": 1000}},
		{Policy: "mnemot"}, // duplicate: memoized twice, naive measures twice
	}

	naive, err := Naive(ctx, cfg, w, cands)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	tuner := New()
	memo, err := tuner.Sweep(ctx, cfg, w, cands)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if !reflect.DeepEqual(stripped(memo), stripped(naive)) {
		t.Fatalf("memoized evals differ from naive:\n%+v\nvs\n%+v", stripped(memo), stripped(naive))
	}
	for i := range cands {
		var nb, mb bytes.Buffer
		if err := naive[i].Curve().WriteCSV(&nb); err != nil {
			t.Fatalf("naive WriteCSV: %v", err)
		}
		if err := memo[i].Curve().WriteCSV(&mb); err != nil {
			t.Fatalf("memoized WriteCSV: %v", err)
		}
		if !bytes.Equal(nb.Bytes(), mb.Bytes()) {
			t.Fatalf("candidate %s: curve CSV bytes differ between naive and memoized", cands[i])
		}
	}
	if st := tuner.Cache().Stats(); st.Measurements != 1 {
		t.Fatalf("memoized sweep executed %d measurements for %d candidates, want 1", st.Measurements, len(cands))
	}
}

// A tuning run is bit-deterministic for a fixed seed under any worker
// count (S4).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	w := tuneWorkload(t)
	var results []*Result
	for _, workers := range []int{1, 2, 8} {
		cfg := tuneConfig()
		cfg.Budget = 24
		cfg.Seed = 7
		cfg.Workers = workers
		cfg.Policies = []string{"touch", "freqdecay", "knapsack"}
		res, err := New().Run(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(stripped(results[i].Evals), stripped(results[0].Evals)) {
			t.Fatalf("worker count changed the evaluation sequence")
		}
		if !reflect.DeepEqual(stripped(results[i].Frontier), stripped(results[0].Frontier)) {
			t.Fatalf("worker count changed the frontier")
		}
		if results[i].Winner.PolicyName != results[0].Winner.PolicyName {
			t.Fatalf("worker count changed the winner: %q vs %q",
				results[i].Winner.PolicyName, results[0].Winner.PolicyName)
		}
	}
}

// Run's frontier is a valid Pareto frontier and the winner leads it.
func TestRunFrontierInvariants(t *testing.T) {
	w := tuneWorkload(t)
	cfg := tuneConfig()
	cfg.Budget = 20
	cfg.Policies = []string{"mnemot", "knapsack"}
	res, err := New().Run(context.Background(), cfg, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Frontier) == 0 || len(res.Evals) == 0 {
		t.Fatal("empty run result")
	}
	for i := 1; i < len(res.Frontier); i++ {
		prev, cur := res.Frontier[i-1], res.Frontier[i]
		if cur.CostFactor <= prev.CostFactor || cur.Slowdown >= prev.Slowdown {
			t.Fatalf("frontier not Pareto-ordered at %d: %+v then %+v", i, prev, cur)
		}
	}
	if res.Winner.CostFactor != res.Frontier[0].CostFactor {
		t.Fatalf("winner cost %v is not the frontier's best %v", res.Winner.CostFactor, res.Frontier[0].CostFactor)
	}
	for _, e := range res.Evals {
		if e.Slowdown > cfg.SLO+1e-9 && e.Satisfiable {
			t.Fatalf("eval %s flagged satisfiable beyond the SLO: slowdown %v", e.PolicyName, e.Slowdown)
		}
	}
	if len(res.Defaults) != len(cfg.Policies) {
		t.Fatalf("got %d default evals for %d policies", len(res.Defaults), len(cfg.Policies))
	}
	if res.Stats.Measurements != 1 {
		t.Fatalf("run executed %d measurements, want 1", res.Stats.Measurements)
	}
}

// Config validation produces descriptive errors (S3).
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero SLO", func(c *Config) { c.SLO = 0 }, "SLO 0 must be positive"},
		{"huge SLO", func(c *Config) { c.SLO = 11 }, "outside (0,10]"},
		{"negative budget", func(c *Config) { c.Budget = -1 }, "must be non-negative"},
		{"excess budget", func(c *Config) { c.Budget = MaxBudget + 1 }, "above the cap"},
		{"negative workers", func(c *Config) { c.Workers = -2 }, "Workers -2 must be non-negative"},
		{"unknown policy", func(c *Config) { c.Policies = []string{"nosuch"} }, `unknown policy "nosuch"`},
		{"duplicate policy", func(c *Config) { c.Policies = []string{"touch", "touch"} }, "listed twice"},
		{"budget below policies", func(c *Config) { c.Budget = 2 }, "below the 8 policies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tuneConfig()
			tc.mut(&cfg)
			_, err := cfg.normalized()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalized() error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// A spec written from a run's winner replays bit-identically; a
// tampered expectation is caught.
func TestSpecRoundTripAndReplay(t *testing.T) {
	recipe := WorkloadRecipe{Name: "ycsb_b", Seed: 5, Keys: 150, Requests: 3000}
	w, err := resolveRecipe(recipe)
	if err != nil {
		t.Fatalf("resolve recipe: %v", err)
	}
	cfg := tuneConfig()
	cfg.Budget = 16
	cfg.Policies = []string{"mnemot", "knapsack"}
	tuner := New()
	res, err := tuner.Run(context.Background(), cfg, w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	spec, err := tuner.NewSpec(res, cfg, w, recipe)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}

	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := DecodeSpec(&buf)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Fatalf("spec did not round-trip:\n%+v\nvs\n%+v", decoded, spec)
	}

	// Replay through a fresh tuner — nothing shared with the run.
	if _, err := New().Replay(context.Background(), decoded); err != nil {
		t.Fatalf("Replay: %v", err)
	}

	// A drifted expectation must be detected.
	bad := *decoded
	bad.Expected.FastBytes++
	if _, err := New().Replay(context.Background(), &bad); err == nil ||
		!strings.Contains(err.Error(), "diverged from spec") {
		t.Fatalf("tampered spec replayed cleanly (err %v)", err)
	}

	// A drifted recipe must be detected via the workload hash.
	badW := *decoded
	badW.Workload.Seed++
	if _, err := New().Replay(context.Background(), &badW); err == nil ||
		!strings.Contains(err.Error(), "workload hash") {
		t.Fatalf("drifted recipe replayed cleanly (err %v)", err)
	}
}

// A negative, NaN or infinite noise_sigma is a config error caught by
// DecodeSpec and Spec.Validate, naming the field — not a panic inside a
// replay's baseline measurement.
func TestSpecRejectsBadNoiseSigma(t *testing.T) {
	doc := `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,` +
		`"price_factor":0.2,"noise_sigma":-0.5,"slo":0.1,"policy":"touch","expected":{}}`
	if _, err := DecodeSpec(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "NoiseSigma") {
		t.Fatalf("DecodeSpec error = %v, want one naming NoiseSigma", err)
	}
	for _, sigma := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := &Spec{Version: SpecVersion, Workload: WorkloadRecipe{Name: "ycsb_b"}, WorkloadHash: "0",
			Engine: "redislike", Runs: 1, PriceFactor: 0.2, NoiseSigma: sigma, SLO: 0.1, Policy: "touch"}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "NoiseSigma") {
			t.Errorf("noise_sigma %v: Validate error = %v, want one naming NoiseSigma", sigma, err)
		}
		if _, err := New().Replay(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "NoiseSigma") {
			t.Errorf("noise_sigma %v: Replay error = %v, want one naming NoiseSigma", sigma, err)
		}
	}
}

// DecodeSpec rejects malformed documents with descriptive errors.
func TestDecodeSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad version", `{"version":9,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"touch","expected":{}}`, "version 9"},
		{"unknown field", `{"version":1,"bogus":true}`, "bogus"},
		{"no workload", `{"version":1,"workload":{"name":""},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"touch","expected":{}}`, "no workload name"},
		{"bad hash", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"zz","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"touch","expected":{}}`, "not a 64-bit hex hash"},
		{"bad engine", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"oracle","runs":1,"price_factor":0.2,"slo":0.1,"policy":"touch","expected":{}}`, `unknown engine "oracle"`},
		{"bad policy", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"nope","expected":{}}`, `unknown policy "nope"`},
		{"bad param", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"knapsack","params":{"anchor":7},"expected":{}}`, "outside [0,1]"},
		{"bad runtime", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"touch","runtime":{"nope":1},"expected":{}}`, `unknown field "runtime"`},
		// A runtime block once validated and was then ignored, so an
		// epoch_ops spec replayed as a static run; it is rejected now.
		{"runtime epoch_ops", `{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,"price_factor":0.2,"slo":0.1,"policy":"adaptive-freq","runtime":{"epoch_ops":4096},"expected":{}}`, `unknown field "runtime"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeSpec error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// DefaultGrid is deterministic, dedup-free at the sizes CI uses, and
// evaluates cleanly.
func TestDefaultGrid(t *testing.T) {
	g1, g2 := DefaultGrid(32), DefaultGrid(32)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatal("DefaultGrid is not deterministic")
	}
	if len(g1) != 32 {
		t.Fatalf("DefaultGrid(32) returned %d candidates", len(g1))
	}
	seen := map[string]bool{}
	for _, c := range g1 {
		if seen[c.String()] {
			t.Fatalf("duplicate candidate %s", c)
		}
		seen[c.String()] = true
	}
	if len(DefaultGrid(48)) != 48 {
		t.Fatal("DefaultGrid did not extend to 48")
	}
}

// A sweep solves one knapsack table per distinct coarsening however many
// knapsack candidates it holds and however many workers race for it, and
// what it returns is what unshared sessions compute.
func TestSweepSharesAnalysisAcrossCandidates(t *testing.T) {
	w := tuneWorkload(t)
	cfg := tuneConfig()
	ctx := context.Background()
	cands := DefaultGrid(32)
	knapsacks := 0
	for _, c := range cands {
		if c.Policy == "knapsack" {
			knapsacks++
		}
	}
	want, err := Naive(ctx, cfg, w, cands)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	var first core.CacheStats
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		tuner := New()
		got, err := tuner.Sweep(ctx, cfg, w, cands)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(stripped(got), stripped(want)) {
			t.Fatalf("workers=%d: sweep differs from unshared sessions", workers)
		}
		st := tuner.Cache().Stats()
		// The 150-key dataset fits the DP budget uncoarsened: the key
		// stats and one table are all there is to compute.
		if st.AnalysisComputes != 2 || st.AnalysisHits < int64(knapsacks-1) {
			t.Fatalf("workers=%d: %+v, want 2 analysis artifacts computed and ≥ %d hits for %d knapsack candidates",
				workers, st, knapsacks-1, knapsacks)
		}
		if workers == 1 {
			first = st
		} else if st != first {
			t.Fatalf("workers=%d changed the cache stats: %+v vs %+v", workers, st, first)
		}
	}
}
