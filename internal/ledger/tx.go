package ledger

import (
	"fmt"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// TxType enumerates the transaction types the study's ledger supports,
// the subset of rippled's catalogue the paper's dataset consists of.
type TxType uint8

const (
	// TxPayment moves value: a direct XRP transfer or a rippling IOU
	// payment along trust-lines and order books.
	TxPayment TxType = iota + 1
	// TxOfferCreate places a currency-exchange offer in an order book;
	// the transaction type that makes an account a Market Maker.
	TxOfferCreate
	// TxOfferCancel withdraws a previously placed offer.
	TxOfferCancel
	// TxTrustSet creates or modifies a trust-line: the sender extends
	// credit to a peer, up to a limit, in one currency.
	TxTrustSet
	// TxAccountSet adjusts account flags; included for realism of the
	// workload mix.
	TxAccountSet
)

// String implements fmt.Stringer.
func (t TxType) String() string {
	switch t {
	case TxPayment:
		return "Payment"
	case TxOfferCreate:
		return "OfferCreate"
	case TxOfferCancel:
		return "OfferCancel"
	case TxTrustSet:
		return "TrustSet"
	case TxAccountSet:
		return "AccountSet"
	default:
		return fmt.Sprintf("TxType(%d)", uint8(t))
	}
}

// Tx is a signed Ripple transaction. A single struct covers all types
// (mirroring rippled's STTx); fields irrelevant to a given type stay at
// their zero values. Which fields each type uses:
//
//   - Payment: Destination, Amount (+DestIssuer), SendMax (+SendIssuer)
//   - OfferCreate: TakerPays/TakerPaysIssuer, TakerGets/TakerGetsIssuer
//   - OfferCancel: OfferSequence
//   - TrustSet: LimitPeer, Limit (the trust limit extended to LimitPeer)
//   - AccountSet: none
type Tx struct {
	Type     TxType         `json:"type"`
	Account  addr.AccountID `json:"account"`  // sender
	Sequence uint32         `json:"sequence"` // per-account sequence number
	Fee      amount.Drops   `json:"fee"`      // XRP destroyed on inclusion

	// Payment fields.
	Destination addr.AccountID `json:"destination,omitempty"`
	Amount      amount.Amount  `json:"amount,omitempty"` // delivered amount
	DestIssuer  addr.AccountID `json:"dest_issuer,omitempty"`
	SendMax     amount.Amount  `json:"send_max,omitempty"` // source-side cap for cross-currency payments
	SendIssuer  addr.AccountID `json:"send_issuer,omitempty"`

	// OfferCreate fields.
	TakerPays       amount.Amount  `json:"taker_pays,omitempty"`
	TakerPaysIssuer addr.AccountID `json:"taker_pays_issuer,omitempty"`
	TakerGets       amount.Amount  `json:"taker_gets,omitempty"`
	TakerGetsIssuer addr.AccountID `json:"taker_gets_issuer,omitempty"`

	// OfferCancel field.
	OfferSequence uint32 `json:"offer_sequence,omitempty"`

	// TrustSet fields.
	LimitPeer addr.AccountID `json:"limit_peer,omitempty"`
	Limit     amount.Amount  `json:"limit,omitempty"`

	// Signature over the canonical signing bytes.
	SigningKey []byte `json:"signing_key,omitempty"`
	Signature  []byte `json:"signature,omitempty"`
}

// Hash returns the transaction's identifying hash: SHA-512-half of the
// canonical serialization including the signature, as in rippled. The
// serialization is txFixedBytes plus a key and a signature of a few dozen
// bytes each, so it is built on the stack; an oversized signature spills
// to the heap and hashes the same.
func (tx *Tx) Hash() Hash {
	var buf [txFixedBytes + 2*(2+96)]byte
	return SHA512Half(tx.Encode(buf[:0]))
}

// SourceCurrency is the currency a Payment's sender spends: SendMax's
// when set, the delivered currency otherwise.
func (tx *Tx) SourceCurrency() amount.Currency {
	if !tx.SendMax.IsZero() {
		return tx.SendMax.Currency
	}
	return tx.Amount.Currency
}

// IsDirectXRP reports whether a Payment is a plain XRP transfer: a
// balance move that needs no path and never consults the pathfinder.
func (tx *Tx) IsDirectXRP() bool {
	return tx.Amount.Currency.IsXRP() && tx.SourceCurrency().IsXRP()
}

// Sign signs the transaction with kp and records the signature and
// signing key.
func (tx *Tx) Sign(kp *addr.KeyPair) {
	tx.SigningKey = kp.PublicKey()
	tx.Signature = kp.Sign(tx.signingBytes())
}

// VerifySignature reports whether the transaction carries a valid
// signature and the signing key matches the sending account.
func (tx *Tx) VerifySignature() bool {
	if len(tx.SigningKey) == 0 || len(tx.Signature) == 0 {
		return false
	}
	if addr.AccountIDFromPublicKey(tx.SigningKey) != tx.Account {
		return false
	}
	return addr.Verify(tx.SigningKey, tx.signingBytes(), tx.Signature)
}

// signingBytes is the canonical serialization without the signature.
func (tx *Tx) signingBytes() []byte {
	clone := *tx
	clone.Signature = nil
	clone.SigningKey = nil
	return clone.Encode(nil)
}

// TxResult is the engine result code recorded in transaction metadata,
// a simplified version of rippled's `tes`/`tec` codes.
type TxResult uint8

const (
	// ResultSuccess: the transaction applied and achieved its effect.
	ResultSuccess TxResult = iota + 1
	// ResultPathDry: a payment failed because no path with sufficient
	// liquidity exists (trust exhausted, offers missing).
	ResultPathDry
	// ResultUnfunded: the sender lacks the XRP or IOU balance to pay.
	ResultUnfunded
	// ResultNoDestination: the destination account does not exist.
	ResultNoDestination
	// ResultNoPermission: limit or flag constraints forbid the action.
	ResultNoPermission
	// ResultBadSequence: the per-account sequence number mismatched.
	ResultBadSequence
	// ResultMalformed: the transaction was structurally invalid.
	ResultMalformed
)

// String implements fmt.Stringer using rippled-flavoured names.
func (r TxResult) String() string {
	switch r {
	case ResultSuccess:
		return "tesSUCCESS"
	case ResultPathDry:
		return "tecPATH_DRY"
	case ResultUnfunded:
		return "tecUNFUNDED"
	case ResultNoDestination:
		return "tecNO_DST"
	case ResultNoPermission:
		return "tecNO_PERMISSION"
	case ResultBadSequence:
		return "tefPAST_SEQ"
	case ResultMalformed:
		return "temMALFORMED"
	default:
		return fmt.Sprintf("TxResult(%d)", uint8(r))
	}
}

// Succeeded reports whether the result is tesSUCCESS.
func (r TxResult) Succeeded() bool { return r == ResultSuccess }

// TxMeta is the execution metadata the engine records alongside an
// applied transaction. The appendix analyses (Fig. 6: hops and parallel
// paths; Table II: delivery) read these fields rather than re-deriving
// them.
type TxMeta struct {
	Result TxResult `json:"result"`
	// Delivered is the amount actually delivered to the destination
	// (payments only).
	Delivered amount.Amount `json:"delivered,omitempty"`
	// PathHops holds, for each parallel path the payment used, the
	// number of intermediate hops (accounts between sender and
	// destination). Direct XRP payments record no paths.
	PathHops []uint8 `json:"path_hops,omitempty"`
	// OffersConsumed counts order-book offers fully or partially
	// consumed while executing the payment (cross-currency bridging).
	OffersConsumed uint32 `json:"offers_consumed,omitempty"`
	// CrossCurrency records whether source and delivered currencies
	// differ.
	CrossCurrency bool `json:"cross_currency,omitempty"`
	// Intermediaries lists the accounts the payment crossed between
	// sender and destination — trust-path hops and consumed-offer
	// owners — once per parallel path the account carried. Figure 7(a)
	// ranks accounts by how often they appear here.
	Intermediaries []addr.AccountID `json:"intermediaries,omitempty"`
}

// ParallelPaths returns the number of parallel paths the payment was
// split into.
func (m *TxMeta) ParallelPaths() int { return len(m.PathHops) }

// MaxHops returns the largest intermediate-hop count among the payment's
// paths, the quantity Figure 6(a) histograms.
func (m *TxMeta) MaxHops() int {
	max := 0
	for _, h := range m.PathHops {
		if int(h) > max {
			max = int(h)
		}
	}
	return max
}

// RippleEpoch is the zero of Ripple's on-ledger time scale
// (2000-01-01T00:00:00Z). Close times are stored as seconds since this
// epoch.
var RippleEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// CloseTime is a ledger close timestamp with second precision, stored as
// seconds since the Ripple epoch.
type CloseTime uint32

// CloseTimeFromTime converts a time.Time.
func CloseTimeFromTime(t time.Time) CloseTime {
	d := t.Unix() - RippleEpoch.Unix()
	if d < 0 {
		return 0
	}
	return CloseTime(d)
}

// Time converts back to a time.Time in UTC.
func (c CloseTime) Time() time.Time { return RippleEpoch.Add(time.Duration(c) * time.Second) }

// String implements fmt.Stringer.
func (c CloseTime) String() string { return c.Time().Format("2006-01-02 15:04:05") }
