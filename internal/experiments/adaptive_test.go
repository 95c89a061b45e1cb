package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestAdaptiveCompareWinsOnDrift pins the tentpole's headline claim: on
// a drifting hot set, with migration traffic charged to the clock, both
// adaptive policies must beat every static policy in the catalog.
func TestAdaptiveCompareWinsOnDrift(t *testing.T) {
	r, err := AdaptiveCompare(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AdaptiveWins() {
		best := r.BestStatic()
		for _, row := range r.Rows {
			if row.Adaptive && row.Runtime >= best.Runtime {
				t.Errorf("adaptive %q (%v) did not beat best static %q (%v) with migration charged",
					row.Policy, row.Runtime, best.Policy, best.Runtime)
			}
		}
		t.Fatal("adaptive did not win on the drift workload")
	}
	// The win is honest: the winner actually migrated and paid for it.
	winner := r.BestAdaptive()
	if winner.Epochs == 0 || winner.Moves == 0 || winner.MigratedBytes == 0 || winner.MigrationNs == 0 {
		t.Fatalf("winning adaptive row carries no migration evidence: %+v", winner)
	}
	var traffic int64
	for _, e := range winner.EpochTraffic {
		traffic += e.Bytes
	}
	if traffic != winner.MigratedBytes {
		t.Fatalf("per-epoch traffic %d bytes does not ledger to the total %d", traffic, winner.MigratedBytes)
	}
}

// TestAdaptiveCompareDeterministic: same scale and seed, same result,
// at GOMAXPROCS 1 and 2. The experiment's legs (every policy, static
// and adaptive) are one measuring call that runs them concurrently on
// one LLC walk of the drift trace, so the thread count must not show.
func TestAdaptiveCompareDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var renders [2]string
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		r, err := AdaptiveCompare(Quick, 1)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		renders[i] = buf.String()
	}
	if renders[0] != renders[1] {
		t.Fatalf("AdaptiveCompare diverged between GOMAXPROCS 1 and 2:\n%s\nvs\n%s", renders[0], renders[1])
	}
	if !strings.Contains(renders[0], "runtime gain") {
		t.Fatalf("render lacks the gain line:\n%s", renders[0])
	}
}

// TestScaleMigrationKnobValidation covers the Scale-level knob checks.
func TestScaleMigrationKnobValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Scale)
	}{
		{"negative epoch ops", func(s *Scale) { s.EpochOps = -1 }},
		{"negative migration cost", func(s *Scale) { s.MigrationCostPerByte = -0.5 }},
		{"negative migration budget", func(s *Scale) { s.MigrationBudget = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Quick
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("invalid scale accepted")
			}
		})
	}
}
