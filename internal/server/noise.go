package server

import (
	"fmt"
	"math"
	"sync"
)

// Noise injects multiplicative measurement noise into per-request service
// times, standing in for the run-to-run variability of the paper's real
// testbed ("reported values are the mean of multiple experiment runs").
// A lognormal factor exp(σ·N(0,1)) keeps service times positive and
// averages to ≈1 for small σ, so aggregate runtimes stay unbiased while
// individual runs differ — this is what makes the Fig 8a error
// distribution non-degenerate.
//
// The factor is table-driven: a splitmix64 stream yields five 12-bit
// lanes per 64-bit step, and each lane indexes an immutable
// noiseTableSize-entry table of lognormal quantiles (see noiseTable).
// Factor and Scale read that one stream lane by lane, so any
// interleaving of the two consumes the same draws in the same order.
type Noise struct {
	sigma float64
	tab   *noiseTable // nil when sigma is 0
	state uint64      // splitmix64 state
	// lanes holds the undrawn lanes of the last step, lowest lane first,
	// under a sentinel bit just above them: lanes < noiseTableSize means
	// none is left.
	lanes uint64
}

// DefaultNoiseSigma is the per-request lognormal σ used by experiments.
const DefaultNoiseSigma = 0.02

const (
	noiseLaneBits  = 12
	noiseTableSize = 1 << noiseLaneBits // 4096 entries, 32 KB
	noiseLaneMask  = noiseTableSize - 1
	noiseLanes     = 64 / noiseLaneBits // lanes per splitmix64 step

	// noiseDomain is the noise stream's first mixSeeds operand: the
	// stream of run seed s starts from mixSeeds(noiseDomain, s).
	noiseDomain = 0x6E6F697365 // "noise"
	// splitmixGamma is splitmix64's state increment, 2⁶⁴/φ.
	splitmixGamma = 0x9E3779B97F4A7C15
)

// Scale unrolls one step into five lanes; these fail to compile otherwise.
const (
	_ uint = noiseLanes - 5
	_ uint = 5 - noiseLanes
)

// noiseTable holds exp(σ·Φ⁻¹((i+½)/noiseTableSize)) for i in
// [0, noiseTableSize), rescaled so that its mean is exactly the
// lognormal mean exp(σ²/2). A uniform 12-bit index therefore draws a
// factor whose distribution is the lognormal's, quantised to 4096
// equiprobable quantiles and truncated at |z| ≈ 3.67 (the outermost
// midpoint quantile, p ≈ 1.2·10⁻⁴): only quantiles beyond p99.98 move,
// and the table keeps ≈99.97% of the lognormal variance. 32 KB keeps it
// cache-resident next to the engines' working set on the per-op path,
// where every draw is one serialised load.
type noiseTable [noiseTableSize]float64

func newNoiseTable(sigma float64) *noiseTable {
	t := new(noiseTable)
	sum := 0.0
	for i := range t {
		p := (float64(i) + 0.5) / noiseTableSize
		z := math.Sqrt2 * math.Erfinv(2*p-1)
		t[i] = math.Exp(sigma * z)
		sum += t[i]
	}
	scale := math.Exp(sigma*sigma/2) / (sum / noiseTableSize)
	for i := range t {
		t[i] *= scale
	}
	return t
}

// defaultTable is DefaultNoiseSigma's table, built once and shared by
// every deployment; any other σ builds its own at NewNoise.
var defaultTable = sync.OnceValue(func() *noiseTable { return newNoiseTable(DefaultNoiseSigma) })

func tableFor(sigma float64) *noiseTable {
	switch sigma {
	case 0:
		return nil
	case DefaultNoiseSigma:
		return defaultTable()
	}
	return newNoiseTable(sigma)
}

// validateNoiseSigma is the one σ range rule, shared by Config.Validate
// and NewNoise.
func validateNoiseSigma(sigma float64) error {
	if !(sigma >= 0) || math.IsInf(sigma, 1) {
		return fmt.Errorf("server: NoiseSigma %v must be a finite non-negative number (0 disables noise)", sigma)
	}
	return nil
}

// NewNoise creates a noise source. sigma = 0 disables noise entirely;
// a negative or non-finite sigma panics (Config.Validate rejects it
// before a deployment is built).
func NewNoise(sigma float64, seed int64) *Noise {
	if err := validateNoiseSigma(sigma); err != nil {
		panic(err.Error())
	}
	n := &Noise{sigma: sigma, tab: tableFor(sigma)}
	n.reseed(seed)
	return n
}

// reseed restarts the stream from seed in place, keeping the table: the
// stream is then the one NewNoise(n.Sigma(), seed) would draw.
func (n *Noise) reseed(seed int64) {
	n.state = uint64(mixSeeds(noiseDomain, seed))
	n.lanes = 0
}

// mixSeeds combines two seeds via a splitmix64-style finalizer, so
// neighboring run seeds (i, i+1, …) land on uncorrelated streams.
func mixSeeds(a, b int64) int64 {
	z := uint64(a)*splitmixGamma + uint64(b)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// step advances the splitmix64 state and returns the next five lanes:
// the top 60 bits of its output.
func step(state *uint64) uint64 {
	*state += splitmixGamma
	z := *state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return (z ^ z>>31) >> (64 - noiseLanes*noiseLaneBits)
}

// Factor returns the next multiplicative noise factor.
func (n *Noise) Factor() float64 {
	if n == nil || n.tab == nil {
		return 1
	}
	if n.lanes < noiseTableSize {
		n.lanes = step(&n.state) | 1<<(noiseLanes*noiseLaneBits)
	}
	f := n.tab[n.lanes&noiseLaneMask]
	n.lanes >>= noiseLaneBits
	return f
}

// Scale multiplies every element of xs by the next noise factor, in
// order — xs[i] *= Factor() — as one tight loop: the same draws, in the
// same order, as len(xs) Factor calls, lanes carried over from an
// earlier call included. This is the batched replay kernel's noise
// stage.
func (n *Noise) Scale(xs []float64) {
	if n == nil || n.tab == nil {
		return
	}
	t := n.tab
	i := 0
	for ; n.lanes >= noiseTableSize && i < len(xs); i++ {
		xs[i] *= t[n.lanes&noiseLaneMask]
		n.lanes >>= noiseLaneBits
	}
	for ; i+noiseLanes <= len(xs); i += noiseLanes {
		z := step(&n.state)
		x := xs[i : i+noiseLanes : i+noiseLanes]
		x[0] *= t[z&noiseLaneMask]
		x[1] *= t[z>>(1*noiseLaneBits)&noiseLaneMask]
		x[2] *= t[z>>(2*noiseLaneBits)&noiseLaneMask]
		x[3] *= t[z>>(3*noiseLaneBits)&noiseLaneMask]
		x[4] *= t[z>>(4*noiseLaneBits)&noiseLaneMask]
	}
	for ; i < len(xs); i++ {
		xs[i] *= n.Factor()
	}
}

// Sigma reports the configured σ.
func (n *Noise) Sigma() float64 {
	if n == nil {
		return 0
	}
	return n.sigma
}
