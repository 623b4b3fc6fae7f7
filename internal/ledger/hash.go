// Package ledger defines the Ripple distributed ledger's data model: the
// transaction types users submit, the execution metadata the payment
// engine records, and the ledger pages ("a book for recording financial
// transactions") that consensus seals. It also provides the canonical
// binary serialization and SHA-512-half hashing that identify
// transactions and pages.
package ledger

import (
	"crypto/sha512"
	"encoding/hex"
	"fmt"
)

// Hash is a 256-bit identifier: the first half of a SHA-512 digest, the
// same construction rippled uses ("SHA-512Half") for transaction IDs and
// ledger hashes.
type Hash [32]byte

// SHA512Half computes the first 32 bytes of SHA-512(data).
func SHA512Half(data []byte) Hash {
	sum := sha512.Sum512(data)
	var h Hash
	copy(h[:], sum[:32])
	return h
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// String renders the hash in uppercase hex, as rippled displays ledger
// hashes.
func (h Hash) String() string { return string(h.AppendHex(make([]byte, 0, 2*len(h)))) }

// AppendHex appends the String form to dst.
func (h Hash) AppendHex(dst []byte) []byte {
	const digits = "0123456789ABCDEF"
	for _, b := range h {
		dst = append(dst, digits[b>>4], digits[b&15])
	}
	return dst
}

// Short returns the first 8 hex characters, for logs and reports.
func (h Hash) Short() string { return h.String()[:8] }

// ParseHash parses a 64-character hex string.
func ParseHash(s string) (h Hash, err error) {
	err = h.UnmarshalText([]byte(s))
	return h, err
}

// MarshalText implements encoding.TextMarshaler.
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
// It allocates nothing on success: the stream decoder calls it per event.
func (h *Hash) UnmarshalText(text []byte) error {
	if len(text) != 64 {
		return fmt.Errorf("ledger: hash %q: want 64 hex characters", text)
	}
	var parsed Hash
	if _, err := hex.Decode(parsed[:], text); err != nil {
		return fmt.Errorf("ledger: hash %q: %w", text, err)
	}
	*h = parsed
	return nil
}
