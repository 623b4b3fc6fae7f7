package amount

import (
	"strings"
	"testing"
)

func TestValueMinMax(t *testing.T) {
	a, b := MustParse("3"), MustParse("7")
	if a.Min(b).Cmp(a) != 0 || b.Min(a).Cmp(a) != 0 {
		t.Error("Min wrong")
	}
	if a.Max(b).Cmp(b) != 0 || b.Max(a).Cmp(b) != 0 {
		t.Error("Max wrong")
	}
	if a.Min(a).Cmp(a) != 0 || a.Max(a).Cmp(a) != 0 {
		t.Error("Min/Max of equal values wrong")
	}
	neg := MustParse("-5")
	if neg.Min(a).Cmp(neg) != 0 {
		t.Error("Min with negative wrong")
	}
}

func TestValueComparisonHelpers(t *testing.T) {
	a, b := MustParse("2"), MustParse("3")
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less wrong")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
	if a.Sign() != 1 || a.Neg().Sign() != -1 || Zero.Sign() != 0 {
		t.Error("Sign wrong")
	}
	if !Zero.Neg().IsZero() {
		t.Error("Neg of zero should stay zero")
	}
	if !a.IsPositive() || a.IsNegative() {
		t.Error("IsPositive/IsNegative wrong")
	}
}

func TestStrengthString(t *testing.T) {
	if StrengthPowerful.String() != "powerful" ||
		StrengthMedium.String() != "medium" ||
		StrengthWeak.String() != "weak" {
		t.Error("strength strings wrong")
	}
	if !strings.Contains(Strength(42).String(), "42") {
		t.Error("unknown strength should include the number")
	}
}

func TestValueTextMarshalRoundTrip(t *testing.T) {
	v := MustParse("-123.456")
	text, err := v.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Value
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back.Cmp(v) != 0 {
		t.Errorf("round trip %s -> %s", v, back)
	}
	if err := back.UnmarshalText([]byte("not-a-number")); err == nil {
		t.Error("bad text accepted")
	}
	var c Currency
	if err := c.UnmarshalText([]byte("TOOLONG")); err == nil {
		t.Error("bad currency text accepted")
	}
}

func TestXRPAmountHelper(t *testing.T) {
	a := XRPAmount(2_500_000)
	if a.Currency != XRP || a.Value.String() != "2.5" {
		t.Errorf("XRPAmount = %s", a)
	}
	if a.IsZero() || a.IsNegative() {
		t.Error("flags wrong")
	}
	if !XRPAmount(0).IsZero() {
		t.Error("zero drops should be zero amount")
	}
	if !a.SameCurrency(XRPAmount(1)) || a.SameCurrency(MustAmount("1/USD")) {
		t.Error("SameCurrency wrong")
	}
}
