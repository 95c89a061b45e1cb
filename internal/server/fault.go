package server

import (
	"fmt"
	"math/rand"

	"mnemo/internal/simclock"
)

// FaultSpec configures deterministic fault injection into measurement
// runs — the emulated-testbed analogue of a flaky physical machine,
// where a run can die outright, stall, crash partway, or return garbage
// numbers. Each run rolls its fate once, from a stream seeded by the
// spec's Seed mixed with the run's own Config.Seed, so a given (spec,
// run) pair always fails the same way: fault schedules are replayable,
// and the zero-valued spec injects nothing and perturbs nothing (the
// noise RNG stream is untouched, preserving bit-identical results).
//
// At most one fault fires per run, decided in precedence order
// fail → stall → outlier → crash. A sharded run is one run: its fate is
// rolled once from the cluster seed and lands on member 0 alone (see
// Config.shardConfig), so the per-run fault rate does not grow with
// the shard count.
type FaultSpec struct {
	// Seed decorrelates the fault schedule from the measurement seeds.
	Seed int64
	// FailProb is the probability a run dies before executing anything
	// (a crashed server process); surfaces as a *FaultError.
	FailProb float64
	// StallProb is the probability a run stalls: at a random request
	// the simulated clock jumps by Stall, so the run only terminates
	// within budget if a per-run timeout (Config.RunTimeout) cuts it off.
	StallProb float64
	// OutlierProb is the probability a run's service times are all
	// inflated by OutlierFactor — a measurement that completes but lies.
	OutlierProb float64
	// OutlierFactor is the latency multiplier of an outlier run
	// (default 8).
	OutlierFactor float64
	// Stall is the simulated-time jump of a stalled run (default 10s,
	// far beyond any healthy run at the paper's scale).
	Stall simclock.Duration
	// StallWindowOps bounds the request index at which a stall strikes
	// (default 4096); it also bounds the request index of a crash.
	StallWindowOps int
	// CrashProb is the probability a run crashes mid-replay: the server
	// serves a prefix of the trace and then dies, surfacing a
	// *FaultError of kind FaultCrash. Unlike FailProb (dead at connect
	// time), a crash burns simulated work before failing; like every
	// other fault it is remediated by the client's repetition retries.
	CrashProb float64
}

// Enabled reports whether the spec can inject any fault at all.
func (f FaultSpec) Enabled() bool {
	return f.FailProb > 0 || f.StallProb > 0 || f.OutlierProb > 0 || f.CrashProb > 0
}

// Validate rejects malformed specs with descriptive errors.
func (f FaultSpec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"FailProb", f.FailProb}, {"StallProb", f.StallProb}, {"OutlierProb", f.OutlierProb},
		{"CrashProb", f.CrashProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("server: fault %s %v outside [0,1]", p.name, p.v)
		}
	}
	if f.OutlierFactor < 0 {
		return fmt.Errorf("server: fault OutlierFactor %v must be non-negative", f.OutlierFactor)
	}
	if f.Stall < 0 {
		return fmt.Errorf("server: fault Stall %v must be non-negative", f.Stall)
	}
	if f.StallWindowOps < 0 {
		return fmt.Errorf("server: fault StallWindowOps %d must be non-negative", f.StallWindowOps)
	}
	return nil
}

// Defaults for the zero-valued tuning knobs.
const (
	defaultOutlierFactor  = 8.0
	defaultStall          = 10 * simclock.Second
	defaultStallWindowOps = 4096
)

func (f FaultSpec) outlierFactor() float64 {
	if f.OutlierFactor == 0 {
		return defaultOutlierFactor
	}
	return f.OutlierFactor
}

func (f FaultSpec) stall() simclock.Duration {
	if f.Stall == 0 {
		return defaultStall
	}
	return f.Stall
}

func (f FaultSpec) stallWindow() int {
	if f.StallWindowOps == 0 {
		return defaultStallWindowOps
	}
	return f.StallWindowOps
}

// FaultKind classifies an injected fault.
type FaultKind int

// The injected fault kinds.
const (
	FaultFail FaultKind = iota
	FaultStall
	FaultOutlier
	FaultCrash
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultFail:
		return "fail"
	case FaultStall:
		return "stall"
	case FaultOutlier:
		return "outlier"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultError is the typed error of an injected run failure, so callers
// can distinguish a scheduled fault (retryable) from a real bug.
type FaultError struct {
	Kind FaultKind
	// Seed is the run seed the fault was rolled for, for reproduction.
	Seed int64
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("server: injected %s fault (run seed %d)", e.Kind, e.Seed)
}

// faultPlan is one deployment's rolled fate. The inert plan (no fail,
// stallAt/crashAt −1, factor 1) is what a zero-valued spec always
// produces.
type faultPlan struct {
	fail    bool
	stallAt int // request index of the simulated stall; −1 = none
	factor  float64
	crashAt int // request index of a mid-run crash; −1 = none
}

// inertPlan injects nothing.
func inertPlan() faultPlan { return faultPlan{stallAt: -1, crashAt: -1, factor: 1} }

// roll decides the deployment's fate deterministically from the spec
// seed and the run's measurement seed. A fresh RNG is used so the roll
// never consumes draws from the run's noise stream.
//
// The draw order is load-bearing: the fail → stall → outlier draws come
// first so specs that only set those probabilities reproduce their
// schedules from before the crash class existed bit-exactly; crash draws
// after them and only when none of them fired, preserving the
// at-most-one-fault invariant.
func (f FaultSpec) roll(runSeed int64) faultPlan {
	if !f.Enabled() {
		return inertPlan()
	}
	rng := rand.New(rand.NewSource(mixSeeds(f.Seed, runSeed)))
	plan := inertPlan()
	switch {
	case rng.Float64() < f.FailProb:
		plan.fail = true
	case rng.Float64() < f.StallProb:
		plan.stallAt = rng.Intn(f.stallWindow())
	case rng.Float64() < f.OutlierProb:
		plan.factor = f.outlierFactor()
	case rng.Float64() < f.CrashProb:
		plan.crashAt = rng.Intn(f.stallWindow())
	}
	return plan
}

// mixSeeds combines the fault seed with a run seed via a splitmix64-style
// finalizer, so neighboring run seeds (i, i+1, …) land on uncorrelated
// fault rolls.
func mixSeeds(a, b int64) int64 {
	z := uint64(a)*splitmixGamma + uint64(b)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
