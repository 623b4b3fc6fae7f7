package addr

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestBase58RoundTrip(t *testing.T) {
	tests := [][]byte{
		{0},
		{0, 0, 0},
		{1},
		{0xff},
		{0, 1, 2, 3},
		bytes.Repeat([]byte{0xab}, 20),
		bytes.Repeat([]byte{0x00}, 5),
	}
	for _, in := range tests {
		enc := encodeBase58(in)
		dec, err := decodeBase58(enc)
		if err != nil {
			t.Errorf("decode(%q): %v", enc, err)
			continue
		}
		if !bytes.Equal(dec, in) {
			t.Errorf("round trip %x -> %q -> %x", in, enc, dec)
		}
	}
}

func TestPropBase58RoundTrip(t *testing.T) {
	f := func(in []byte) bool {
		if len(in) == 0 {
			return true // tokens are never empty; empty has no encoding
		}
		dec, err := decodeBase58(encodeBase58(in))
		return err == nil && bytes.Equal(dec, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBase58CheckDetectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0x42}, 20)
	token := EncodeBase58Check(VersionAccountID, payload)
	// Flip one character somewhere past the prefix.
	for i := 5; i < len(token); i++ {
		for _, repl := range []byte{'r', 'p', 'z'} {
			if token[i] == repl {
				continue
			}
			corrupted := token[:i] + string(repl) + token[i+1:]
			if _, err := DecodeBase58Check(corrupted, VersionAccountID); err == nil {
				t.Fatalf("corrupted token %q accepted", corrupted)
			}
			break
		}
	}
}

func TestDecodeBase58Errors(t *testing.T) {
	if _, err := decodeBase58(""); err == nil {
		t.Error("empty string: want error")
	}
	if _, err := decodeBase58("0OIl"); err == nil {
		t.Error("characters outside alphabet: want error")
	}
	if _, err := DecodeBase58Check("rrr", VersionAccountID); err == nil {
		t.Error("too-short token: want error")
	}
}

func TestAccountIDEncoding(t *testing.T) {
	kp := KeyPairFromSeed(7)
	id := kp.AccountID()
	s := id.String()
	if !strings.HasPrefix(s, "r") {
		t.Errorf("account address %q does not start with 'r'", s)
	}
	back, err := ParseAccountID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Errorf("round trip %s -> %s", id, back)
	}
}

func TestAccountZero(t *testing.T) {
	if !AccountZero.IsZero() {
		t.Error("AccountZero.IsZero() = false")
	}
	s := AccountZero.String()
	if !strings.HasPrefix(s, "r") {
		t.Errorf("AccountZero address %q does not start with 'r'", s)
	}
	back, err := ParseAccountID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != AccountZero {
		t.Error("AccountZero does not round trip")
	}
}

func TestAccountIDShort(t *testing.T) {
	id := KeyPairFromSeed(99).AccountID()
	short := id.Short()
	full := id.String()
	if !strings.Contains(short, "...") {
		t.Errorf("Short() = %q, want ellipsis form", short)
	}
	if !strings.HasPrefix(full, short[:6]) {
		t.Errorf("Short() prefix %q does not match address %q", short[:6], full)
	}
	if !strings.HasSuffix(full, short[len(short)-6:]) {
		t.Errorf("Short() suffix does not match address")
	}
}

func TestNodeIDEncoding(t *testing.T) {
	kp := KeyPairFromSeed(13)
	n := kp.NodeID()
	s := n.String()
	if !strings.HasPrefix(s, "n") {
		t.Errorf("node key %q does not start with 'n'", s)
	}
	back, err := ParseNodeID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != n {
		t.Errorf("round trip %s -> %s", n, back)
	}
	if !bytes.Equal(back.PublicKey(), kp.PublicKey()) {
		t.Error("NodeID does not carry the public key")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	kp := KeyPairFromSeed(1)
	accountToken := kp.AccountID().String()
	if _, err := ParseNodeID(accountToken); err == nil {
		t.Error("parsing an account token as a node ID: want error")
	}
	nodeToken := kp.NodeID().String()
	if _, err := ParseAccountID(nodeToken); err == nil {
		t.Error("parsing a node token as an account ID: want error")
	}
}

func TestKeyPairDeterminism(t *testing.T) {
	a := KeyPairFromSeed(42)
	b := KeyPairFromSeed(42)
	c := KeyPairFromSeed(43)
	if a.AccountID() != b.AccountID() {
		t.Error("same seed produced different accounts")
	}
	if a.AccountID() == c.AccountID() {
		t.Error("different seeds produced the same account")
	}
}

func TestSignVerify(t *testing.T) {
	kp := KeyPairFromSeed(4)
	msg := []byte("ledger page 12345")
	sig := kp.Sign(msg)
	if !Verify(kp.PublicKey(), msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(kp.PublicKey(), []byte("other message"), sig) {
		t.Error("signature accepted for wrong message")
	}
	other := KeyPairFromSeed(5)
	if Verify(other.PublicKey(), msg, sig) {
		t.Error("signature accepted under wrong key")
	}
	if Verify(nil, msg, sig) {
		t.Error("nil key accepted")
	}
	if Verify(kp.PublicKey(), msg, sig[:10]) {
		t.Error("truncated signature accepted")
	}
}

func TestAccountIDTextMarshal(t *testing.T) {
	id := KeyPairFromSeed(3).AccountID()
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back AccountID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Error("text marshal round trip failed")
	}
}

func TestAccountIDLess(t *testing.T) {
	a := AccountID{1}
	b := AccountID{2}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less ordering is inconsistent")
	}
}

func TestNodeIDFromPublicKeyRejectsBadLength(t *testing.T) {
	if _, err := NodeIDFromPublicKey(make([]byte, 31)); err == nil {
		t.Error("31-byte key accepted")
	}
}
