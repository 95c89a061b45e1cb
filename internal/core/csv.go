package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// WriteCSV emits the curve in the paper's output format (§IV,
// "Interfacing with Mnemo"): a csv with three columns — key identifier,
// estimated performance, and cost reduction factor. "Each row contains a
// key identifier, the estimated performance and cost reduction factor,
// when FastMem will service all previous keys in the file" — so row k
// describes the sizing that pins keys from rows 1..k to FastMem. The
// leading row with an empty key is the all-SlowMem origin.
func (c *Curve) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"key", "est_throughput_ops", "cost_factor"}); err != nil {
		return err
	}
	row := make([]string, 3)
	var num []byte
	for _, p := range c.Points {
		// Both numbers share one string: one allocation per row.
		num = appendFixed(num[:0], p.EstThroughputOps, 2)
		split := len(num)
		num = appendFixed(num, p.CostFactor, 6)
		fields := string(num)
		row[0], row[1], row[2] = p.LastKey, fields[:split], fields[split:]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// pow10 holds the powers of ten appendFixed scales by.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendFixed appends x with prec decimals, the bytes
// strconv.AppendFloat(dst, x, 'f', prec, 64) appends, in integer
// arithmetic: x = mant·2^e exactly, so x·10^prec is the 128-bit product
// mant·10^prec shifted by e, rounded half to even as strconv rounds the
// exact decimal value. strconv sends every 'f' format with a fixed
// precision to its arbitrary-precision path, which costs several times
// more. A non-finite x, a precision outside [0, 19] and an |x|·10^prec
// of 2^63 or more take strconv's path.
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	switch {
	case exp == 0x7ff || prec < 0 || prec >= len(pow10):
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	case exp == 0: // subnormal: mant·2^-1074
		exp = 1
	default:
		mant |= 1 << 52
	}
	e := exp - 1075 // x = ±mant·2^e
	hi, lo := bits.Mul64(mant, pow10[prec])
	var n uint64 // round(|x|·10^prec)
	switch {
	case e >= 0:
		if hi != 0 || e >= 64 || lo>>(63-e) != 0 {
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		n = lo << e
	case e > -128:
		// t keeps one bit below the units; the bits below it are sticky.
		s := uint(-e - 1)
		thi, tlo := shr128(hi, lo, s)
		if thi != 0 {
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		n = tlo >> 1
		if shi, slo := shl128(thi, tlo, s); tlo&1 == 1 && (shi != hi || slo != lo || n&1 == 1) {
			n++
		}
	} // e ≤ -128: |x|·10^prec < 2^117·2^-128 rounds to 0
	var buf [24]byte
	i := len(buf)
	for range prec {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			break
		}
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	return append(dst, buf[i:]...)
}

// shr128 shifts the 128-bit hi:lo right by s < 128 bits.
func shr128(hi, lo uint64, s uint) (uint64, uint64) {
	if s >= 64 {
		return 0, hi >> (s - 64)
	}
	return hi >> s, lo>>s | hi<<(64-s)
}

// shl128 shifts the 128-bit hi:lo left by s < 128 bits.
func shl128(hi, lo uint64, s uint) (uint64, uint64) {
	if s >= 64 {
		return lo << (s - 64), 0
	}
	return hi<<s | lo>>(64-s), lo << s
}

// ReadCurveCSV parses a csv written by WriteCSV back into the point
// fields it carries (key, throughput, cost factor). It is the consumer
// side of the tool's interface: "The user of Mnemo should choose the line
// that satisfies its performance requirements and price allowance".
func ReadCurveCSV(r io.Reader) ([]CurvePoint, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("core: reading curve header: %w", err)
	}
	if header[0] != "key" {
		return nil, fmt.Errorf("core: unexpected curve header %q", header)
	}
	var out []CurvePoint
	k := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading curve row %d: %w", k, err)
		}
		tput, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("core: row %d: bad throughput %q", k, row[1])
		}
		cost, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("core: row %d: bad cost factor %q", k, row[2])
		}
		out = append(out, CurvePoint{
			KeysInFast:       k,
			LastKey:          row[0],
			EstThroughputOps: tput,
			CostFactor:       cost,
		})
		k++
	}
	return out, nil
}
