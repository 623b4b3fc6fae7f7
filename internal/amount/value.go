package amount

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Value is a signed decimal floating-point number mirroring the semantics
// of rippled's STAmount for issued currencies: a 16-digit mantissa and a
// decimal exponent. All issued-currency balances, trust limits, offer
// amounts, and payment amounts in this repository are Values.
//
// A non-zero Value is kept normalized: mantissa in [MinMantissa,
// MaxMantissa] and exponent in [MinExponent, MaxExponent]. The zero value
// of the struct represents the number zero and is ready to use.
type Value struct {
	negative bool
	mantissa uint64 // 0, or in [MinMantissa, MaxMantissa]
	exponent int16  // 0 when mantissa == 0
}

// Normalization bounds, identical to rippled's STAmount.
const (
	MinMantissa uint64 = 1000_0000_0000_0000 // 1e15
	MaxMantissa uint64 = 9999_9999_9999_9999 // 1e16 - 1
	MinExponent        = -96
	MaxExponent        = 80
)

// ErrOverflow is returned when an arithmetic result exceeds the
// representable range. Results below the representable range underflow to
// zero rather than erroring, matching rippled.
var ErrOverflow = errors.New("amount: value overflow")

// ErrDivisionByZero is returned by Div when the divisor is zero.
var ErrDivisionByZero = errors.New("amount: division by zero")

var pow10 = [...]uint64{
	1, 10, 100, 1000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
	1_000_000_000, 10_000_000_000, 100_000_000_000, 1_000_000_000_000,
	10_000_000_000_000, 100_000_000_000_000, 1_000_000_000_000_000,
	10_000_000_000_000_000, 100_000_000_000_000_000, 1_000_000_000_000_000_000,
}

// Zero is the zero Value.
var Zero Value

// newNormalized builds a Value from an unnormalized mantissa/exponent pair,
// normalizing and handling underflow (to zero) and overflow (error).
func newNormalized(negative bool, mantissa uint64, exponent int) (Value, error) {
	if mantissa == 0 {
		return Value{}, nil
	}
	for mantissa < MinMantissa {
		if exponent <= MinExponent {
			return Value{}, nil // underflow to zero
		}
		mantissa *= 10
		exponent--
	}
	for mantissa > MaxMantissa {
		rem := mantissa % 10
		mantissa /= 10
		if rem >= 5 {
			mantissa++ // round half away from zero
		}
		exponent++
	}
	// Rounding may have pushed the mantissa past the bound again
	// (…9999 + 1), in which case one more division is exact enough.
	if mantissa > MaxMantissa {
		mantissa /= 10
		exponent++
	}
	if exponent > MaxExponent {
		return Value{}, ErrOverflow
	}
	if exponent < MinExponent {
		return Value{}, nil
	}
	return Value{negative: negative, mantissa: mantissa, exponent: int16(exponent)}, nil
}

// NewValue returns the Value mantissa × 10^exponent.
func NewValue(mantissa int64, exponent int) (Value, error) {
	neg := mantissa < 0
	m := uint64(mantissa)
	if neg {
		m = uint64(-mantissa)
	}
	return newNormalized(neg, m, exponent)
}

// MustValue is like NewValue but panics on overflow. Intended for constants
// and tests.
func MustValue(mantissa int64, exponent int) Value {
	v, err := NewValue(mantissa, exponent)
	if err != nil {
		panic(err)
	}
	return v
}

// FromInt64 returns the Value representing i exactly (i has at most 19
// digits, which normalization rounds to 16 significant digits).
func FromInt64(i int64) Value {
	v, err := NewValue(i, 0)
	if err != nil {
		panic(err) // unreachable: int64 range is far within bounds
	}
	return v
}

// FromFloat64 converts f to a Value with up to 15 significant decimal
// digits. NaN and infinities are rejected.
func FromFloat64(f float64) (Value, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Value{}, fmt.Errorf("amount: cannot represent %v", f)
	}
	return Parse(strconv.FormatFloat(f, 'e', 15, 64))
}

// IsZero reports whether v is zero.
func (v Value) IsZero() bool { return v.mantissa == 0 }

// Sign returns -1, 0, or +1 according to the sign of v.
func (v Value) Sign() int {
	switch {
	case v.mantissa == 0:
		return 0
	case v.negative:
		return -1
	default:
		return 1
	}
}

// IsNegative reports whether v < 0.
func (v Value) IsNegative() bool { return v.Sign() < 0 }

// IsPositive reports whether v > 0.
func (v Value) IsPositive() bool { return v.Sign() > 0 }

// Mantissa returns the normalized mantissa of v (0 for zero).
func (v Value) Mantissa() uint64 { return v.mantissa }

// Exponent returns the normalized exponent of v (0 for zero).
func (v Value) Exponent() int { return int(v.exponent) }

// Neg returns -v.
func (v Value) Neg() Value {
	if v.mantissa == 0 {
		return Value{}
	}
	v.negative = !v.negative
	return v
}

// Cmp compares v and w, returning -1 if v < w, 0 if v == w, +1 if v > w.
func (v Value) Cmp(w Value) int {
	vs, ws := v.Sign(), w.Sign()
	switch {
	case vs < ws:
		return -1
	case vs > ws:
		return 1
	case vs == 0:
		return 0
	}
	// Same non-zero sign. Compare magnitudes; invert for negatives.
	mag := v.cmpMagnitude(w)
	if vs < 0 {
		return -mag
	}
	return mag
}

func (v Value) cmpMagnitude(w Value) int {
	switch {
	case v.exponent < w.exponent:
		return -1
	case v.exponent > w.exponent:
		return 1
	case v.mantissa < w.mantissa:
		return -1
	case v.mantissa > w.mantissa:
		return 1
	default:
		return 0
	}
}

// Equal reports whether v == w.
func (v Value) Equal(w Value) bool { return v == w }

// Less reports whether v < w.
func (v Value) Less(w Value) bool { return v.Cmp(w) < 0 }

// Add returns v + w.
func (v Value) Add(w Value) (Value, error) {
	if v.mantissa == 0 {
		return w, nil
	}
	if w.mantissa == 0 {
		return v, nil
	}
	// Bring both operands to the larger exponent, scaling the smaller
	// operand's mantissa down with round-to-nearest. Precision loss is at
	// most half an ulp of the larger operand, as in rippled.
	a, b := v, w
	if a.exponent < b.exponent {
		a, b = b, a
	}
	diff := int(a.exponent) - int(b.exponent)
	var bm uint64
	if diff < len(pow10) {
		d := pow10[diff]
		bm = b.mantissa / d
		if b.mantissa%d >= d/2 && d > 1 {
			bm++
		}
	}
	// Signed addition of magnitudes at exponent a.exponent.
	am := int64(a.mantissa)
	if a.negative {
		am = -am
	}
	bms := int64(bm)
	if b.negative {
		bms = -bms
	}
	sum := am + bms // |am|,|bms| < 1e16, no overflow
	neg := sum < 0
	mag := uint64(sum)
	if neg {
		mag = uint64(-sum)
	}
	return newNormalized(neg, mag, int(a.exponent))
}

// Sub returns v - w.
func (v Value) Sub(w Value) (Value, error) { return v.Add(w.Neg()) }

// Mul returns v × w with 16 significant digits.
func (v Value) Mul(w Value) (Value, error) {
	if v.mantissa == 0 || w.mantissa == 0 {
		return Value{}, nil
	}
	hi, lo := bits.Mul64(v.mantissa, w.mantissa)
	// Divide the 128-bit product by 1e16 to renormalize the mantissa.
	const scale = 10_000_000_000_000_000 // 1e16
	q, r := bits.Div64(hi, lo, scale)
	if r >= scale/2 {
		q++
	}
	return newNormalized(v.negative != w.negative, q, int(v.exponent)+int(w.exponent)+16)
}

// Div returns v ÷ w with 16 significant digits.
func (v Value) Div(w Value) (Value, error) {
	if w.mantissa == 0 {
		return Value{}, ErrDivisionByZero
	}
	if v.mantissa == 0 {
		return Value{}, nil
	}
	// (v.mantissa × 1e16) ÷ w.mantissa keeps 16-17 significant digits.
	const scale = 10_000_000_000_000_000 // 1e16
	hi, lo := bits.Mul64(v.mantissa, scale)
	q, r := bits.Div64(hi, lo, w.mantissa)
	if r >= w.mantissa/2 {
		q++
	}
	return newNormalized(v.negative != w.negative, q, int(v.exponent)-int(w.exponent)-16)
}

// Min returns the smaller of v and w.
func (v Value) Min(w Value) Value {
	if v.Cmp(w) <= 0 {
		return v
	}
	return w
}

// Max returns the larger of v and w.
func (v Value) Max(w Value) Value {
	if v.Cmp(w) >= 0 {
		return v
	}
	return w
}

// RoundToPow10 rounds v to the nearest integral multiple of 10^p, rounding
// half away from zero. This is the Table I rounding primitive: for example,
// RoundToPow10(2) rounds to the closest hundred and RoundToPow10(-2) to the
// closest cent. Values smaller than half of 10^p round to zero.
func (v Value) RoundToPow10(p int) Value {
	if v.mantissa == 0 {
		return Value{}
	}
	e := int(v.exponent)
	if e >= p {
		return v // already an integral multiple of 10^p
	}
	d := p - e // digits to drop
	if d >= len(pow10) {
		return Value{}
	}
	div := pow10[d]
	k := v.mantissa / div
	if v.mantissa%div >= (div+1)/2 {
		k++
	}
	out, err := newNormalized(v.negative, k, p)
	if err != nil {
		// Unreachable: rounding can only shrink the magnitude's digit
		// count, never push the exponent past MaxExponent by more than
		// normalization absorbs.
		panic(err)
	}
	return out
}

// pow10f memoizes math.Pow(10, e) for every normalized exponent.
// Float64 runs per payment on analysis hot paths (histogram bucketing,
// currency totals); the table is built with math.Pow itself, so lookups
// are bit-identical to the direct call.
var pow10f = func() (t [MaxExponent - MinExponent + 1]float64) {
	for i := range t {
		t[i] = math.Pow(10, float64(MinExponent+i))
	}
	return
}()

// Float64 returns the closest float64 to v. Analysis code (survival
// functions, histograms) uses this lossy view; ledger state never does.
func (v Value) Float64() float64 {
	if v.mantissa == 0 {
		return 0
	}
	f := float64(v.mantissa) * pow10f[int(v.exponent)-MinExponent]
	if v.negative {
		return -f
	}
	return f
}

// Parse parses a decimal string such as "42", "-3.14", "4.5", or
// "1.2e-5" into a Value.
func Parse(s string) (Value, error) {
	orig := s
	if s == "" {
		return Value{}, errors.New("amount: empty value string")
	}
	neg := false
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	// Split off the exponent part.
	expPart := 0
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		e, err := strconv.Atoi(s[i+1:])
		if err != nil {
			return Value{}, fmt.Errorf("amount: bad exponent in %q", orig)
		}
		expPart = e
		s = s[:i]
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return Value{}, fmt.Errorf("amount: no digits in %q", orig)
	}
	var mantissa uint64
	exp := expPart
	digits := 0
	consume := func(part string, fraction bool) error {
		for i := 0; i < len(part); i++ {
			c := part[i]
			if c < '0' || c > '9' {
				return fmt.Errorf("amount: bad digit %q in %q", c, orig)
			}
			if digits >= 17 {
				// Further digits only shift the exponent (integer part)
				// or are dropped (fraction part).
				if !fraction {
					exp++
				}
				continue
			}
			mantissa = mantissa*10 + uint64(c-'0')
			if mantissa > 0 {
				digits++
			}
			if fraction {
				exp--
			}
		}
		return nil
	}
	if err := consume(intPart, false); err != nil {
		return Value{}, err
	}
	if err := consume(fracPart, true); err != nil {
		return Value{}, err
	}
	return newNormalized(neg, mantissa, exp)
}

// MustParse is like Parse but panics on error. Intended for tests and
// constants.
func MustParse(s string) Value {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders v as a plain decimal where practical, falling back to
// scientific notation for extreme exponents.
func (v Value) String() string {
	if v.mantissa == 0 {
		return "0"
	}
	digits := strconv.FormatUint(v.mantissa, 10)
	// Strip trailing zeros from the significand, folding them into the
	// exponent, so 5000000000000000e-15 prints as "5".
	e := int(v.exponent)
	for len(digits) > 1 && digits[len(digits)-1] == '0' {
		digits = digits[:len(digits)-1]
		e++
	}
	var b strings.Builder
	if v.negative {
		b.WriteByte('-')
	}
	// pointPos is the number of significand digits before the decimal
	// point when written without an exponent.
	pointPos := len(digits) + e
	switch {
	case e >= 0 && pointPos <= 21:
		// Integral: digits followed by e zeros.
		b.WriteString(digits)
		for i := 0; i < e; i++ {
			b.WriteByte('0')
		}
	case pointPos > 0 && pointPos <= 21:
		b.WriteString(digits[:pointPos])
		b.WriteByte('.')
		b.WriteString(digits[pointPos:])
	case pointPos <= 0 && pointPos > -6:
		b.WriteString("0.")
		for i := 0; i < -pointPos; i++ {
			b.WriteByte('0')
		}
		b.WriteString(digits)
	default:
		// Scientific notation.
		b.WriteString(digits[:1])
		if len(digits) > 1 {
			b.WriteByte('.')
			b.WriteString(digits[1:])
		}
		b.WriteByte('e')
		b.WriteString(strconv.Itoa(pointPos - 1))
	}
	return b.String()
}

// MarshalText implements encoding.TextMarshaler.
func (v Value) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (v *Value) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}
