package addr

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// AccountID is the 160-bit identifier of a Ripple account. In rippled it
// is RIPEMD160(SHA256(pubkey)); the Go standard library has no RIPEMD160,
// so this implementation uses the first 20 bytes of
// SHA256(SHA256(pubkey)), which preserves the properties the study relies
// on: fixed 160-bit width, uniform pseudo-randomness, and no semantic
// content about the owning entity.
type AccountID [20]byte

// AccountZero is the special account that initially owns all XRP. Its
// secret key is publicly known ("hard-coded in Ripple's protocol
// definition"), which is why the paper observes over 1M spam payments sent
// to it.
var AccountZero AccountID

// AccountIDFromPublicKey derives the account identifier from a public
// signing key.
func AccountIDFromPublicKey(pub []byte) AccountID {
	first := sha256.Sum256(pub)
	second := sha256.Sum256(first[:])
	var id AccountID
	copy(id[:], second[:20])
	return id
}

// ParseAccountID decodes an "r..." address.
func ParseAccountID(s string) (AccountID, error) {
	payload, err := DecodeBase58Check(s, VersionAccountID)
	if err != nil {
		return AccountID{}, err
	}
	if len(payload) != 20 {
		return AccountID{}, fmt.Errorf("addr: account payload is %d bytes, want 20", len(payload))
	}
	var id AccountID
	copy(id[:], payload)
	return id, nil
}

// IsZero reports whether id is AccountZero.
func (id AccountID) IsZero() bool { return id == AccountZero }

// String renders the account in its base58check "r..." form.
func (id AccountID) String() string { return EncodeBase58Check(VersionAccountID, id[:]) }

// Short renders the truncated form used in the paper's figures:
// the first six characters, an ellipsis, and the last six characters.
func (id AccountID) Short() string {
	s := id.String()
	if len(s) <= 15 {
		return s
	}
	return s[:6] + "..." + s[len(s)-6:]
}

// Less provides a stable ordering for deterministic iteration over
// account sets.
func (id AccountID) Less(other AccountID) bool {
	return bytes.Compare(id[:], other[:]) < 0
}

// MarshalText implements encoding.TextMarshaler.
func (id AccountID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *AccountID) UnmarshalText(text []byte) error {
	parsed, err := ParseAccountID(string(text))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// NodeID is the identifier of a validator, derived from its node public
// key and rendered with the "n..." prefix, as in the paper's Figure 2
// labels (e.g. "n9KDJn...Q7KhQ2").
type NodeID [33]byte

// NodeIDFromPublicKey wraps a 32-byte ed25519 public key into the 33-byte
// node key format (a leading type byte, as rippled uses for its key
// encodings).
func NodeIDFromPublicKey(pub []byte) (NodeID, error) {
	if len(pub) != 32 {
		return NodeID{}, fmt.Errorf("addr: node public key is %d bytes, want 32", len(pub))
	}
	var n NodeID
	// The leading type byte uses rippled's compressed-secp256k1 tag so
	// encoded keys render as "n9..." exactly like the paper's Figure 2
	// labels; the key material itself is ed25519.
	n[0] = 0x02
	copy(n[1:], pub)
	return n, nil
}

// ParseNodeID decodes an "n..." node public key token.
func ParseNodeID(s string) (NodeID, error) {
	payload, err := DecodeBase58Check(s, VersionNodePublic)
	if err != nil {
		return NodeID{}, err
	}
	if len(payload) != 33 {
		return NodeID{}, fmt.Errorf("addr: node payload is %d bytes, want 33", len(payload))
	}
	var n NodeID
	copy(n[:], payload)
	return n, nil
}

// PublicKey returns the raw 32-byte signing key inside the node ID.
func (n NodeID) PublicKey() []byte { return n[1:] }

// String renders the node key in its base58check "n..." form.
func (n NodeID) String() string { return EncodeBase58Check(VersionNodePublic, n[:]) }

// Short renders the truncated "n9KDJn...Q7KhQ2" form used in Figure 2.
func (n NodeID) Short() string {
	s := n.String()
	if len(s) <= 15 {
		return s
	}
	return s[:6] + "..." + s[len(s)-6:]
}

// MarshalText implements encoding.TextMarshaler.
func (n NodeID) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (n *NodeID) UnmarshalText(text []byte) error {
	parsed, err := ParseNodeID(string(text))
	if err != nil {
		return err
	}
	*n = parsed
	return nil
}
