package addr

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
)

// KeyPair holds an ed25519 signing keypair together with the derived
// Ripple identifiers. Account holders and validators both use KeyPairs;
// accounts are addressed by AccountID, validators by NodeID.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// KeyPairFromSeed deterministically derives a keypair from a 64-bit seed.
// The synthetic-history generator uses this so that account populations
// are reproducible run to run.
func KeyPairFromSeed(seed uint64) *KeyPair {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	h := sha256.Sum256(buf[:])
	priv := ed25519.NewKeyFromSeed(h[:])
	return &KeyPair{pub: priv.Public().(ed25519.PublicKey), priv: priv}
}

// PublicKey returns the raw 32-byte public key.
func (k *KeyPair) PublicKey() []byte { return []byte(k.pub) }

// AccountID returns the account identifier derived from the public key.
func (k *KeyPair) AccountID() AccountID { return AccountIDFromPublicKey(k.pub) }

// NodeID returns the validator node identifier derived from the public
// key.
func (k *KeyPair) NodeID() NodeID {
	n, err := NodeIDFromPublicKey(k.pub)
	if err != nil {
		panic(err) // unreachable: ed25519 public keys are 32 bytes
	}
	return n
}

// Sign signs msg and returns the 64-byte ed25519 signature.
func (k *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.priv, msg) }

// Verify reports whether sig is a valid signature of msg under the 32-byte
// public key pub.
func Verify(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}
