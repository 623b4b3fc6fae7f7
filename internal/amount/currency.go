// Package amount implements Ripple-style monetary values: the native XRP
// currency counted in integral drops, and issued-currency (IOU) values
// represented as normalized decimal floating point numbers, mirroring the
// semantics of rippled's STAmount.
//
// The package is the numeric foundation of the study: every payment,
// trust-line limit, order-book offer, and the Table I rounding process of
// the de-anonymization experiment operate on these types.
package amount

import (
	"fmt"
)

// Currency identifies a currency by its three-character Ripple currency
// code. Ripple permits arbitrary 3-character codes, not only ISO 4217 ones;
// the paper's dataset prominently features non-standard codes such as CCK
// and MTL (used for ledger-spam campaigns).
//
// The zero value is the native currency XRP.
type Currency [3]byte

// Well-known currencies referenced throughout the paper.
var (
	XRP = Currency{}          // native currency, counted in drops
	USD = MustCurrency("USD") // US dollar
	EUR = MustCurrency("EUR") // euro
	BTC = MustCurrency("BTC") // bitcoin IOU
	CNY = MustCurrency("CNY") // Chinese yuan
	JPY = MustCurrency("JPY") // Japanese yen
	GBP = MustCurrency("GBP") // British pound
	AUD = MustCurrency("AUD") // Australian dollar
	KRW = MustCurrency("KRW") // South Korean won
	CCK = MustCurrency("CCK") // non-standard code, suspected DoS currency
	MTL = MustCurrency("MTL") // non-standard code, known ledger spam
	STR = MustCurrency("STR") // stellar IOU
	XAU = MustCurrency("XAU") // gold
	XAG = MustCurrency("XAG") // silver
	XPT = MustCurrency("XPT") // platinum
)

// NewCurrency parses a currency code. The empty string and "XRP" both map
// to the native currency. Any other code must be exactly three printable
// ASCII characters.
func NewCurrency(code string) (Currency, error) {
	if code == "" || code == "XRP" {
		return XRP, nil
	}
	if len(code) != 3 {
		return Currency{}, fmt.Errorf("amount: currency code %q: must be 3 characters", code)
	}
	var c Currency
	for i := 0; i < 3; i++ {
		b := code[i]
		if b < 0x21 || b > 0x7e {
			return Currency{}, fmt.Errorf("amount: currency code %q: non-printable character", code)
		}
		c[i] = b
	}
	return c, nil
}

// MustCurrency is like NewCurrency but panics on invalid input. It is
// intended for package-level declarations of well-known codes.
func MustCurrency(code string) Currency {
	c, err := NewCurrency(code)
	if err != nil {
		panic(err)
	}
	return c
}

// IsXRP reports whether c is the native currency.
func (c Currency) IsXRP() bool { return c == XRP }

// String returns the three-character code, or "XRP" for the native
// currency.
func (c Currency) String() string {
	if c.IsXRP() {
		return "XRP"
	}
	return string(c[:])
}

// MarshalText implements encoding.TextMarshaler.
func (c Currency) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *Currency) UnmarshalText(text []byte) error {
	parsed, err := NewCurrency(string(text))
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// Strength buckets currencies by market value per unit, as defined in
// Table I of the paper. The bucket selects the rounding resolutions used
// by the de-anonymization study.
type Strength int

const (
	// StrengthPowerful covers currencies whose unit is worth hundreds of
	// dollars or more (BTC, precious metals).
	StrengthPowerful Strength = iota + 1
	// StrengthMedium covers ordinary fiat currencies (USD, EUR, CNY, ...).
	StrengthMedium
	// StrengthWeak covers low-unit-value currencies (XRP, KRW, JPY-like)
	// and the spam codes CCK and MTL.
	StrengthWeak
)

// String implements fmt.Stringer.
func (s Strength) String() string {
	switch s {
	case StrengthPowerful:
		return "powerful"
	case StrengthMedium:
		return "medium"
	case StrengthWeak:
		return "weak"
	default:
		return fmt.Sprintf("Strength(%d)", int(s))
	}
}

// strengthOf maps the currencies named in Table I. Currencies absent from
// the table default to medium strength.
var strengthOf = map[Currency]Strength{
	BTC: StrengthPowerful,
	XAG: StrengthPowerful,
	XAU: StrengthPowerful,
	XPT: StrengthPowerful,

	CNY: StrengthMedium,
	EUR: StrengthMedium,
	USD: StrengthMedium,
	AUD: StrengthMedium,
	GBP: StrengthMedium,
	JPY: StrengthMedium,

	XRP: StrengthWeak,
	CCK: StrengthWeak,
	STR: StrengthWeak,
	KRW: StrengthWeak,
	MTL: StrengthWeak,
}

// StrengthOf returns the Table I strength group of c. Currencies not
// listed in the table are treated as medium strength, the paper's default
// for ordinary fiat.
func StrengthOf(c Currency) Strength {
	if s, ok := strengthOf[c]; ok {
		return s
	}
	return StrengthMedium
}
