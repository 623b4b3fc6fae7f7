package amount

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// abs returns |v|.
func abs(v Value) Value {
	v.negative = false
	return v
}

func TestParseAndString(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"0", "0"},
		{"0.0", "0"},
		{"-0", "0"},
		{"1", "1"},
		{"-1", "-1"},
		{"42", "42"},
		{"4.5", "4.5"},
		{"-3.14", "-3.14"},
		{"0.001", "0.001"},
		{"1000000", "1000000"},
		{"1e6", "1000000"},
		{"2.5e-3", "0.0025"},
		{"1.23456789", "1.23456789"},
		{"1000000000000000000000000", "1e24"},
		{"0.000000000001", "1e-12"},
		{"+7", "7"},
		{"10.50", "10.5"},
		{"1e22", "1e22"},
	}
	for _, tt := range tests {
		v, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tt.in, err)
			continue
		}
		if got := v.String(); got != tt.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", ".", "-", "1.2.3", "abc", "1e", "1e+", "--4", "4x"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		}
	}
}

func TestNormalization(t *testing.T) {
	v := MustValue(5, 0)
	if v.Mantissa() != 5_000_000_000_000_000 || v.Exponent() != -15 {
		t.Errorf("MustValue(5, 0) = %de%d, want normalized 5e15×10^-15", v.Mantissa(), v.Exponent())
	}
	// Underflow to zero rather than error.
	small, err := NewValue(1, MinExponent-20)
	if err != nil || !small.IsZero() {
		t.Errorf("NewValue far below range = (%v, %v), want (0, nil)", small, err)
	}
	// A mantissa already at full width cannot absorb an out-of-range
	// exponent into normalization.
	if _, err := NewValue(int64(MinMantissa), MaxExponent+1); err == nil {
		t.Error("NewValue above range: want ErrOverflow, got nil")
	}
}

func TestAddSub(t *testing.T) {
	tests := []struct {
		a, b, sum string
	}{
		{"0", "0", "0"},
		{"1", "2", "3"},
		{"1.5", "2.25", "3.75"},
		{"-1", "1", "0"},
		{"10", "-4.5", "5.5"},
		{"1e10", "1", "10000000001"},
		{"0.1", "0.2", "0.3"},
		{"123456789", "987654321", "1111111110"},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		got, err := a.Add(b)
		if err != nil {
			t.Errorf("%s + %s: %v", tt.a, tt.b, err)
			continue
		}
		if got.String() != tt.sum {
			t.Errorf("%s + %s = %s, want %s", tt.a, tt.b, got, tt.sum)
		}
		back, err := got.Sub(b)
		if err != nil {
			t.Errorf("(%s) - %s: %v", got, tt.b, err)
			continue
		}
		if back.Cmp(a) != 0 {
			t.Errorf("(%s + %s) - %s = %s, want %s", tt.a, tt.b, tt.b, back, tt.a)
		}
	}
}

func TestAddFarApartExponents(t *testing.T) {
	big := MustParse("1e30")
	tiny := MustParse("1e-30")
	sum, err := big.Add(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cmp(big) != 0 {
		t.Errorf("1e30 + 1e-30 = %s, want 1e30 (tiny operand below precision)", sum)
	}
}

func TestMulDiv(t *testing.T) {
	tests := []struct {
		a, b, mul string
	}{
		{"2", "3", "6"},
		{"1.5", "4", "6"},
		{"0.5", "0.5", "0.25"},
		{"-2", "3", "-6"},
		{"1e8", "1e8", "10000000000000000"},
		{"4.5", "0", "0"},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		got, err := a.Mul(b)
		if err != nil {
			t.Errorf("%s × %s: %v", tt.a, tt.b, err)
			continue
		}
		if got.String() != tt.mul {
			t.Errorf("%s × %s = %s, want %s", tt.a, tt.b, got, tt.mul)
		}
		if b.IsZero() {
			continue
		}
		back, err := got.Div(b)
		if err != nil {
			t.Errorf("%s ÷ %s: %v", got, tt.b, err)
			continue
		}
		if back.Cmp(a) != 0 {
			t.Errorf("(%s × %s) ÷ %s = %s, want %s", tt.a, tt.b, tt.b, back, tt.a)
		}
	}
	if _, err := MustParse("1").Div(Zero); err != ErrDivisionByZero {
		t.Errorf("1 ÷ 0: err = %v, want ErrDivisionByZero", err)
	}
}

func TestCmp(t *testing.T) {
	order := []string{"-1e10", "-2", "-0.5", "0", "1e-9", "0.5", "2", "3", "1e10"}
	for i, si := range order {
		for j, sj := range order {
			a, b := MustParse(si), MustParse(sj)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(%s, %s) = %d, want %d", si, sj, got, want)
			}
		}
	}
}

func TestRoundToPow10(t *testing.T) {
	tests := []struct {
		in   string
		p    int
		want string
	}{
		{"4.5", 0, "5"}, // round half away from zero
		{"4.4", 0, "4"},
		{"-4.5", 0, "-5"},
		{"1234", 1, "1230"},
		{"1235", 1, "1240"},
		{"1234", 2, "1200"},
		{"1254", 2, "1300"},
		{"1234", 3, "1000"},
		{"123", 3, "0"},    // below half of 10^3
		{"567", 3, "1000"}, // above half of 10^3
		{"0.0234", -2, "0.02"},
		{"0.0254", -2, "0.03"},
		{"0.0234", -3, "0.023"},
		{"1000", 2, "1000"}, // already a multiple
		{"0", 5, "0"},
		{"123456789", 5, "123500000"},
		{"1e-30", 0, "0"},
	}
	for _, tt := range tests {
		got := MustParse(tt.in).RoundToPow10(tt.p)
		if got.String() != tt.want {
			t.Errorf("RoundToPow10(%s, %d) = %s, want %s", tt.in, tt.p, got, tt.want)
		}
	}
}

func TestFloat64(t *testing.T) {
	tests := []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"4.5", 4.5},
		{"-3.25", -3.25},
		{"1e9", 1e9},
	}
	for _, tt := range tests {
		got := MustParse(tt.in).Float64()
		if math.Abs(got-tt.want) > 1e-9*math.Abs(tt.want) {
			t.Errorf("Float64(%s) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFromFloat64(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 4.5, 0.001, 123456.789, -9.75e8} {
		v, err := FromFloat64(f)
		if err != nil {
			t.Fatalf("FromFloat64(%v): %v", f, err)
		}
		if got := v.Float64(); math.Abs(got-f) > 1e-9*math.Abs(f) {
			t.Errorf("round-trip %v -> %v", f, got)
		}
	}
	if _, err := FromFloat64(math.NaN()); err == nil {
		t.Error("FromFloat64(NaN): want error")
	}
	if _, err := FromFloat64(math.Inf(1)); err == nil {
		t.Error("FromFloat64(+Inf): want error")
	}
}

// randomValue generates a Value within moderate exponent range, suitable
// for property tests that add and multiply without hitting the range
// limits.
func randomValue(r *rand.Rand) Value {
	m := int64(r.Uint64() % 9_000_000_000_000_000)
	if r.Intn(2) == 0 {
		m = -m
	}
	e := r.Intn(20) - 10
	v, err := NewValue(m, e)
	if err != nil {
		return Value{}
	}
	return v
}

func TestPropStringRoundTrip(t *testing.T) {
	f := func(mant int64, exp8 int8) bool {
		e := int(exp8 % 30)
		v, err := NewValue(mant, e)
		if err != nil {
			return true // out of range inputs are not round-trippable
		}
		back, err := Parse(v.String())
		if err != nil {
			return false
		}
		return back.Cmp(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropAddCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		x, err1 := a.Add(b)
		y, err2 := b.Add(a)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("a+b and b+a disagree on error: %v vs %v", err1, err2)
		}
		if err1 == nil && x.Cmp(y) != 0 {
			t.Fatalf("%s + %s = %s but %s + %s = %s", a, b, x, b, a, y)
		}
	}
}

func TestPropNegIsInverse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a := randomValue(r)
		sum, err := a.Add(a.Neg())
		if err != nil {
			t.Fatal(err)
		}
		if !sum.IsZero() {
			t.Fatalf("%s + (-%s) = %s, want 0", a, a, sum)
		}
	}
}

func TestPropCmpAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("Cmp(%s,%s)=%d but Cmp(%s,%s)=%d", a, b, a.Cmp(b), b, a, b.Cmp(a))
		}
	}
}

func TestPropRoundIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a := randomValue(r)
		p := r.Intn(12) - 6
		once := a.RoundToPow10(p)
		twice := once.RoundToPow10(p)
		if once.Cmp(twice) != 0 {
			t.Fatalf("rounding not idempotent: %s -> %s -> %s (p=%d)", a, once, twice, p)
		}
	}
}

func TestPropRoundErrorBounded(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := randomValue(r)
		p := r.Intn(8) - 4
		rounded := a.RoundToPow10(p)
		diff, err := a.Sub(rounded)
		if err != nil {
			t.Fatal(err)
		}
		// |a - round(a)| must be at most half of 10^p (plus one ulp of
		// slack for the decimal representation).
		half := MustValue(5, p-1)
		slack := MustValue(1, p-15)
		bound, err := half.Add(slack)
		if err != nil {
			t.Fatal(err)
		}
		if abs(diff).Cmp(bound) > 0 {
			t.Fatalf("|%s - %s| = %s exceeds %s (p=%d)", a, rounded, abs(diff), bound, p)
		}
	}
}

func TestPropMulDivRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		if b.IsZero() {
			continue
		}
		prod, err := a.Mul(b)
		if err != nil {
			continue
		}
		back, err := prod.Div(b)
		if err != nil {
			t.Fatal(err)
		}
		// Allow one part in 1e14 of relative error from the two
		// roundings.
		diff, err := back.Sub(a)
		if err != nil {
			t.Fatal(err)
		}
		if a.IsZero() {
			if !back.IsZero() {
				t.Fatalf("0×%s÷%s = %s, want 0", b, b, back)
			}
			continue
		}
		rel, err := abs(diff).Div(abs(a))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Cmp(MustValue(1, -14)) > 0 {
			t.Fatalf("(%s × %s) ÷ %s = %s, relative error %s", a, b, b, back, rel)
		}
	}
}
