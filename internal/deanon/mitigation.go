package deanon

import (
	"sort"

	"ripplestudy/internal/addr"
)

// The paper's §V closes by weighing the classic Bitcoin countermeasure —
// "create multiple Bitcoin wallets unique to every single transaction" —
// against Ripple's trust backbone: "every new wallet would need to
// create enough new trustlines ... This makes the bootstrapping very
// complex and expensive." MitigationStudy quantifies that trade-off: how
// much splitting a user's activity over k wallets actually limits the
// damage of a single de-anonymized payment, and what the extra wallets
// cost in trust-lines and XRP reserves.

// Ripple's account reserve economics (2015 values): a wallet needs a
// base reserve plus an increment per owned object (trust-lines).
const (
	BaseReserveXRP      = 20
	OwnerReserveXRPLine = 5
)

// MitigationResult is one row of the wallet-splitting study.
type MitigationResult struct {
	// Wallets is k: the number of wallets each sender splits across.
	Wallets int
	// UniqueRate is the fraction of payments whose fingerprint remains
	// unique — unchanged by splitting (the fingerprint never contains
	// the sender), which is exactly the paper's point.
	UniqueRate float64
	// Exposure is the expected fraction of a sender's payment history
	// revealed by de-anonymizing one uniformly random payment: with one
	// wallet, a unique payment exposes everything; with k wallets, only
	// the observed wallet's share.
	Exposure float64
	// LinkableAccounts estimates how many wallet accounts a receiver
	// could still link: wallets paying the same destination remain
	// linkable through it ("possibly allowing the different wallets to
	// be linked back together").
	LinkableAccounts int
	// ExtraTrustLines is the bootstrapping cost: each additional wallet
	// must re-create the sender's trust-lines.
	ExtraTrustLines int
	// ExtraReserveXRP is the XRP locked by the additional wallets'
	// base and owner reserves.
	ExtraReserveXRP float64
}

// MitigationStudy evaluates wallet splitting at each k in ks over the
// payment history. Wallet assignment is round-robin per sender
// (deterministic), the strongest splitting a user can do without
// coordinating wallets per merchant.
func MitigationStudy(payments []Features, ks []int) []MitigationResult {
	// Pass 1: fingerprint uniqueness at the attack resolution.
	res := Figure3Rows[0] // ⟨Am;Tsc;C;D⟩
	counts := make(map[Fingerprint]uint32, len(payments))
	for _, f := range payments {
		counts[FingerprintOf(f, res)]++
	}

	// Per-sender statistics.
	type senderStats struct {
		total      int
		currencies map[[3]byte]bool
		dests      map[addr.AccountID]bool
	}
	bySender := make(map[addr.AccountID]*senderStats)
	for _, f := range payments {
		s := bySender[f.Sender]
		if s == nil {
			s = &senderStats{currencies: make(map[[3]byte]bool), dests: make(map[addr.AccountID]bool)}
			bySender[f.Sender] = s
		}
		s.total++
		s.currencies[f.Currency] = true
		s.dests[f.Destination] = true
	}

	// Stable ordering of each sender's payments for round-robin wallet
	// assignment: history order (the slice order).
	seen := make(map[addr.AccountID]int)

	out := make([]MitigationResult, 0, len(ks))
	for _, k := range ks {
		if k < 1 {
			k = 1
		}
		r := MitigationResult{Wallets: k}
		unique := 0
		exposure := 0.0
		// Wallet sizes per sender: round-robin makes them differ by at
		// most one; n_w = ceil or floor of total/k.
		for a := range seen {
			delete(seen, a)
		}
		// linkable: destinations receiving from ≥2 wallets of one
		// sender can link them. A destination links min(k, paymentsTo)
		// wallets.
		type sd struct {
			sender addr.AccountID
			dest   addr.AccountID
		}
		perDest := make(map[sd]map[int]bool)

		for _, f := range payments {
			idx := seen[f.Sender]
			seen[f.Sender] = idx + 1
			wallet := idx % k
			st := bySender[f.Sender]
			if counts[FingerprintOf(f, res)] == 1 {
				unique++
				// Size of this payment's wallet.
				walletSize := st.total / k
				if wallet < st.total%k {
					walletSize++
				}
				exposure += float64(walletSize) / float64(st.total)
			}
			key := sd{f.Sender, f.Destination}
			m := perDest[key]
			if m == nil {
				m = make(map[int]bool)
				perDest[key] = m
			}
			m[wallet] = true
		}
		r.UniqueRate = float64(unique) / float64(max(1, len(payments)))
		r.Exposure = exposure / float64(max(1, len(payments)))
		for _, wallets := range perDest {
			if len(wallets) >= 2 {
				r.LinkableAccounts += len(wallets)
			}
		}
		// Bootstrapping cost: (k-1) extra wallets per sender, each
		// re-creating the sender's trust-lines (one per currency used;
		// XRP needs none) and locking reserves.
		for _, st := range bySender {
			lines := 0
			for c := range st.currencies {
				if c != [3]byte{} {
					lines++
				}
			}
			r.ExtraTrustLines += (k - 1) * lines
			r.ExtraReserveXRP += float64(k-1) * (BaseReserveXRP + OwnerReserveXRPLine*float64(lines))
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wallets < out[j].Wallets })
	return out
}
