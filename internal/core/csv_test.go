package core

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// strconvCSV is WriteCSV built with strconv.FormatFloat, the bytes
// appendFixed must reproduce.
func strconvCSV(c *Curve) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write([]string{"key", "est_throughput_ops", "cost_factor"})
	for _, p := range c.Points {
		cw.Write([]string{
			p.LastKey,
			strconv.FormatFloat(p.EstThroughputOps, 'f', 2, 64),
			strconv.FormatFloat(p.CostFactor, 'f', 6, 64),
		})
	}
	cw.Flush()
	return buf.Bytes()
}

// The curve CSV's numbers equal strconv's on the values where integer
// rounding could slip: exact half-way ties at both precisions, carries
// into the units, subnormals, signed zero, non-finite values and values
// past appendFixed's exact range.
func TestWriteCSVMatchesStrconv(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, 2.5, -2.5,
		0.125, 0.375, 1.125, -0.625, // ties at 2 decimals
		0.0000005, 0.0000025, 0.5000005, 1.0000015, 0.1234565, // near-ties at 6
		0.0078125, 0.0234375, 1.0078125, -0.0390625, // ties at 6: k/128, k odd
		9.995, 99.995, 0.9999995, 0.99999949, 999999.995, -9.995,
		0.004999, 0.005, 0.0049999999999999, 0.0000004, -0.0000004,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxUint64 / 100, math.MaxUint64 / 1e6, 1 << 62, 1 << 63, 1 << 64, 1 << 70,
		1e17, 1e19, 92233720368547758.07, 9223372036854.775807,
		5826, 7326.14, 0.36, 123456.789, 1 << 52, 1<<53 + 2,
	}
	c := &Curve{}
	for i, v := range values {
		c.Points = append(c.Points, CurvePoint{LastKey: fmt.Sprintf("k%d", i), EstThroughputOps: v, CostFactor: v})
	}
	c.Points = append(c.Points, CurvePoint{LastKey: "a,\"quoted\" key", EstThroughputOps: 1, CostFactor: 0.5})
	var got bytes.Buffer
	if err := c.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if want := strconvCSV(c); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteCSV differs from strconv:\n got %s\nwant %s", got.Bytes(), want)
	}
	for _, v := range values {
		for prec := -1; prec <= 21; prec++ {
			if got, want := string(appendFixed(nil, v, prec)), strconv.FormatFloat(v, 'f', prec, 64); got != want {
				t.Errorf("appendFixed(%v, %d) = %q, want %q", v, prec, got, want)
			}
		}
	}
}

// FuzzAppendFixed compares appendFixed with strconv.FormatFloat byte for
// byte over arbitrary float64 bits and precisions, the out-of-range ones
// included.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, 0.125, 9.995, 0.9999995, 1e19, math.Inf(1)} {
		f.Add(math.Float64bits(v), uint8(2))
		f.Add(math.Float64bits(v), uint8(6))
	}
	f.Fuzz(func(t *testing.T, bits uint64, p uint8) {
		x, prec := math.Float64frombits(bits), int(p%24)-1
		if got, want := string(appendFixed([]byte("x"), x, prec)), "x"+strconv.FormatFloat(x, 'f', prec, 64); got != want {
			t.Fatalf("appendFixed(%v [%#x], %d) = %q, want %q", x, bits, prec, got, want)
		}
	})
}

// BenchmarkCurveWriteCSV writes a 10 001-point curve, the size of a
// 10 000-key workload's, and reports the cost per row.
func BenchmarkCurveWriteCSV(b *testing.B) {
	c := &Curve{Points: make([]CurvePoint, 10_001)}
	for i := range c.Points {
		c.Points[i] = CurvePoint{
			LastKey:          fmt.Sprintf("user%08d", i),
			EstThroughputOps: 5826 + 1500*float64(i)/10_000 + 1/float64(i+3),
			CostFactor:       0.2 + 0.8*float64(i)/10_000,
		}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf.Reset()
		if err := c.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.Points)), "ns/row")
}
