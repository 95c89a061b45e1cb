package server

import (
	"math"
	"math/rand"
)

// Noise injects multiplicative measurement noise into per-request service
// times, standing in for the run-to-run variability of the paper's real
// testbed ("reported values are the mean of multiple experiment runs").
// A lognormal factor exp(σ·N(0,1)) keeps service times positive and
// averages to ≈1 for small σ, so aggregate runtimes stay unbiased while
// individual runs differ — this is what makes the Fig 8a error
// distribution non-degenerate.
type Noise struct {
	sigma float64
	rng   *rand.Rand
}

// DefaultNoiseSigma is the per-request lognormal σ used by experiments.
const DefaultNoiseSigma = 0.02

// NewNoise creates a noise source. sigma = 0 disables noise entirely.
func NewNoise(sigma float64, seed int64) *Noise {
	if sigma < 0 {
		panic("server: negative noise sigma")
	}
	return &Noise{sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Factor returns the next multiplicative noise factor.
func (n *Noise) Factor() float64 {
	if n == nil || n.sigma == 0 {
		return 1
	}
	return math.Exp(n.sigma * n.rng.NormFloat64())
}

// Scale multiplies every element of xs by the next noise factor, in
// order — xs[i] *= Factor() — as one tight loop: the same draws, in the
// same order, as len(xs) Factor calls. This is the batched replay
// kernel's noise stage.
func (n *Noise) Scale(xs []float64) {
	if n == nil || n.sigma == 0 {
		return
	}
	for i := range xs {
		xs[i] *= math.Exp(n.sigma * n.rng.NormFloat64())
	}
}

// Sigma reports the configured σ.
func (n *Noise) Sigma() float64 {
	if n == nil {
		return 0
	}
	return n.sigma
}
