package server

import (
	"math"
	"slices"
	"testing"
)

// lognormal returns the mean, variance and p-quantile of exp(σ·Z).
func lognormal(sigma, p float64) (mean, variance, quantile float64) {
	s2 := sigma * sigma
	z := math.Sqrt2 * math.Erfinv(2*p-1)
	return math.Exp(s2 / 2), (math.Exp(s2) - 1) * math.Exp(s2), math.Exp(sigma * z)
}

// TestNoiseTableFidelity compares the table-driven factor with exp(σZ):
// the table's mean is the lognormal's to 1e-9, its variance is within
// 0.1% of the lognormal's (truncation at |z| ≈ 3.67 and the midpoint
// quantisation cost less than that), a million draws from the stream
// reproduce the table's variance within four standard errors, and the
// draws' p1/p50/p99/p99.9 sit within one table step of the lognormal
// quantiles.
//
// The draw variance is held to the table's, not directly to the
// lognormal's within 0.1%: the sampling error of a variance over 10⁶
// draws is √((μ₄−σ⁴)/N) ≈ 0.14% of it, so a 0.1% bound on the draws
// would test the seed, not the stream.
func TestNoiseTableFidelity(t *testing.T) {
	const draws = 1_000_000
	for _, sigma := range []float64{0.02, 0.05, 0.2} {
		tab := newNoiseTable(sigma)
		wantMean, wantVar, _ := lognormal(sigma, 0.5)

		tabMean := 0.0
		for _, f := range tab {
			tabMean += f
		}
		tabMean /= noiseTableSize
		if math.Abs(tabMean-wantMean) > 1e-9 {
			t.Errorf("σ=%v: table mean %.15f, want exp(σ²/2) = %.15f", sigma, tabMean, wantMean)
		}
		tabVar, tabM4 := 0.0, 0.0
		for _, f := range tab {
			d := (f - tabMean) * (f - tabMean)
			tabVar += d
			tabM4 += d * d
		}
		tabVar /= noiseTableSize
		tabM4 /= noiseTableSize
		if rel := math.Abs(tabVar/wantVar - 1); rel > 1e-3 {
			t.Errorf("σ=%v: table variance %.6g is %.4f%% off the lognormal's %.6g", sigma, tabVar, 100*rel, wantVar)
		}

		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = 1
		}
		NewNoise(sigma, 1).Scale(xs)
		drawVar := 0.0
		for _, x := range xs {
			drawVar += (x - tabMean) * (x - tabMean)
		}
		drawVar /= draws
		if se := math.Sqrt((tabM4 - tabVar*tabVar) / draws); math.Abs(drawVar-tabVar) > 4*se {
			t.Errorf("σ=%v: variance over %d draws %.6g, table %.6g (standard error %.3g)", sigma, draws, drawVar, tabVar, se)
		}

		slices.Sort(xs)
		for _, p := range []float64{0.01, 0.5, 0.99, 0.999} {
			_, _, want := lognormal(sigma, p)
			got := xs[int(p*draws)]
			k, _ := slices.BinarySearch(tab[:], got)
			step := tab[min(k+1, noiseTableSize-1)] - tab[max(k-1, 0)]
			if math.Abs(got-want) > step {
				t.Errorf("σ=%v p%v: draws give %.9f, lognormal %.9f, beyond one table step %.3g", sigma, 100*p, got, want, step)
			}
		}
	}
}

// TestNoiseScaleMatchesFactor pins the lane carry-over: Scale calls of
// every length around a step boundary, interleaved with single Factor
// calls, read the stream draw for draw like Factor alone.
func TestNoiseScaleMatchesFactor(t *testing.T) {
	lengths := []int{1, 4, 5, 6, 4095, 4096}
	want := NewNoise(DefaultNoiseSigma, 7)
	got := NewNoise(DefaultNoiseSigma, 7)
	buf := make([]float64, 4096)
	for round := 0; round < 3; round++ {
		for _, n := range lengths {
			xs := buf[:n]
			for i := range xs {
				xs[i] = 1
			}
			got.Scale(xs)
			for i, x := range xs {
				if f := want.Factor(); x != f {
					t.Fatalf("round %d, Scale(%d)[%d] = %v, Factor gives %v", round, n, i, x, f)
				}
			}
			if a, b := got.Factor(), want.Factor(); a != b {
				t.Fatalf("round %d, Factor after Scale(%d) = %v, want %v", round, n, a, b)
			}
		}
	}
}

// TestNoiseReseedMatchesNew pins ResetRun's in-place reseed: a drained
// stream reseeded to s draws what a fresh NewNoise(σ, s) draws, on a
// shared and on a privately built table.
func TestNoiseReseedMatchesNew(t *testing.T) {
	for _, sigma := range []float64{DefaultNoiseSigma, 0.05} {
		n := NewNoise(sigma, 1)
		n.Scale(make([]float64, 13))
		n.reseed(99)
		fresh := NewNoise(sigma, 99)
		for i := 0; i < 1000; i++ {
			if a, b := n.Factor(), fresh.Factor(); a != b {
				t.Fatalf("σ=%v draw %d: reseeded %v, fresh %v", sigma, i, a, b)
			}
		}
	}
}

// correlation returns the Pearson correlation of xs and ys.
func correlation(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestNoiseStreamsDecorrelated checks that nearby seeds — the next
// repetition, the repetition and shard strides — draw unrelated
// sequences.
func TestNoiseStreamsDecorrelated(t *testing.T) {
	const draws = 100_000
	stream := func(seed int64) []float64 {
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = 1
		}
		NewNoise(DefaultNoiseSigma, seed).Scale(xs)
		return xs
	}
	for _, s := range []int64{0, 1, 42} {
		base := stream(s)
		for _, d := range []int64{1, 2, 1009, shardSeedStride} {
			if rho := correlation(base, stream(s+d)); math.Abs(rho) >= 0.01 {
				t.Errorf("seeds %d and %d: correlation %.4f", s, s+d, rho)
			}
		}
	}
}

func BenchmarkNoiseScale(b *testing.B) {
	n := NewNoise(DefaultNoiseSigma, 1)
	xs := make([]float64, ReplayBlockOps)
	for i := range xs {
		xs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Scale(xs) // each element is a lognormal random walk: far from overflow at any b.N
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/draw")
}

func BenchmarkNoiseFactor(b *testing.B) {
	n := NewNoise(DefaultNoiseSigma, 1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += n.Factor()
	}
	if sum == 0 {
		b.Fatal("no draws")
	}
}

// TestMaxNoiseSigmaFitsClock pins MaxNoiseSigma's reason: the largest
// factor of its table, drawn by each of 10⁸ requests of 50 ms each,
// still fits the int64 nanosecond clock.
func TestMaxNoiseSigmaFitsClock(t *testing.T) {
	const requests, costNs = 1e8, 50e6
	largest := slices.Max(newNoiseTable(MaxNoiseSigma)[:])
	if total := largest * costNs * requests; total >= math.MaxInt64 {
		t.Fatalf("largest factor %.4g × %g ns × %g requests = %.4g ns overflows the clock", largest, costNs, float64(requests), total)
	}
	if err := validateNoiseSigma(math.Nextafter(MaxNoiseSigma, math.Inf(1))); err == nil {
		t.Fatal("σ just above MaxNoiseSigma accepted")
	}
}
