package deanon

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ripplestudy/internal/amount"
)

// The hot path of the §V study hashes every payment under every
// resolution tuple — 10 fingerprints per payment, 230M fingerprints at
// the paper's 23M-payment scale. The generic FingerprintOf used to build
// a fresh hash.Hash per call; at that scale the allocations dominated.
// This file is the allocation-free fast path: FNV-1a is inlined over
// stack buffers, and FeatureEnc precomputes every feature's byte
// encoding (all Table I rounding levels, all time granularities) once
// per payment so that a study over k resolutions performs the rounding
// and serialization work 1×, not k×. A FingerprintPlan then folds the
// chunks of many rows at once in register-held lanes, so independent
// chains advance together (EXPERIMENTS.md, "Fingerprints at the
// multiplier's pace", has the measurements). Both paths are
// bit-identical to hashing the same byte sequence with hash/fnv's
// New64a.

// FNV-1a 64-bit parameters (FNV-0 offset basis hashed over
// "chongo <Landon Curt Noll> /\\../\\", and the 64-bit FNV prime).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvBytes folds b into the running FNV-1a state h.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// Feature-chunk sizes: each chunk carries its domain-separation tag
// ('A', 'T', 'C', 'D') followed by the fixed-width feature encoding.
const (
	amtChunkLen  = 1 + 16 // 'A' ∥ mantissa ∥ exponent<<1|sign
	timeChunkLen = 1 + 8  // 'T' ∥ coarsened close time
	curChunkLen  = 1 + 3  // 'C' ∥ currency code
	dstChunkLen  = 1 + 20 // 'D' ∥ destination account
)

// encodeAmount serializes a rounded amount value into an 'A' chunk.
func encodeAmount(dst *[amtChunkLen]byte, v amount.Value) {
	dst[0] = 'A'
	m := v.Mantissa()
	e := uint64(int64(v.Exponent()))
	s := uint64(0)
	if v.IsNegative() {
		s = 1
	}
	binary.BigEndian.PutUint64(dst[1:9], m)
	binary.BigEndian.PutUint64(dst[9:17], e<<1|s)
}

// FeatureEnc is a payment's features pre-encoded at every resolution
// level: three Table I rounding levels plus the exact amount, and the
// four time granularities. Building one costs three roundings and four
// truncations; every subsequent Fingerprint call is a pure FNV pass
// over the precomputed chunks, with no allocation and no re-rounding.
type FeatureEnc struct {
	// amt[r-1] is the chunk for AmountRes r (Max, Avg, Low, Exact).
	amt [4][amtChunkLen]byte
	// tim[r-1] is the chunk for TimeRes r (Seconds … Days).
	tim [4][timeChunkLen]byte
	cur [curChunkLen]byte
	dst [dstChunkLen]byte
}

// EncodeFeatures precomputes f's fingerprint chunks at every level.
func EncodeFeatures(f Features) FeatureEnc {
	var e FeatureEnc
	EncodeFeaturesTo(&e, &f)
	return e
}

// EncodeFeaturesTo is EncodeFeatures writing into a caller-owned
// FeatureEnc — hot projection loops use it to avoid copying the
// ~130-byte struct through a return value once per payment.
func EncodeFeaturesTo(e *FeatureEnc, f *Features) {
	// One strength lookup covers all three Table I levels: Avg and Low
	// round one and two decades coarser than Max by definition, so the
	// per-level RoundAmount calls (three currency-strength map probes)
	// collapse into a single base-exponent derivation.
	base := tableIBase(amount.StrengthOf(f.Currency))
	encodeAmount(&e.amt[AmountMax-1], f.Amount.RoundToPow10(base))
	encodeAmount(&e.amt[AmountAvg-1], f.Amount.RoundToPow10(base+1))
	encodeAmount(&e.amt[AmountLow-1], f.Amount.RoundToPow10(base+2))
	encodeAmount(&e.amt[AmountExact-1], f.Amount)
	for res := TimeSeconds; res <= TimeDays; res++ {
		e.tim[res-1][0] = 'T'
		binary.BigEndian.PutUint64(e.tim[res-1][1:9], uint64(CoarsenTime(f.Time, res)))
	}
	e.cur[0] = 'C'
	copy(e.cur[1:], f.Currency[:])
	e.dst[0] = 'D'
	copy(e.dst[1:], f.Destination[:])
}

// Fingerprint combines the precomputed chunks selected by res into the
// payment's fingerprint. The result is identical to FingerprintOf on
// the original features.
func (e *FeatureEnc) Fingerprint(res Resolution) Fingerprint {
	h := fnvOffset64
	if res.Amount != AmountOff {
		h = fnvBytes(h, e.amt[res.Amount-1][:])
	}
	if res.Time != TimeOff {
		h = fnvBytes(h, e.tim[res.Time-1][:])
	}
	if res.Currency {
		h = fnvBytes(h, e.cur[:])
	}
	if res.Destination {
		h = fnvBytes(h, e.dst[:])
	}
	return Fingerprint(h)
}

// FingerprintPlan is a compiled resolution list for AppendFingerprints.
// Building the plan once per study (instead of re-deriving per payment)
// lets the hot loop exploit two structural facts about real resolution
// sets like Figure3Rows:
//
//   - Rows share hash prefixes: Figure 3's ten rows fold only four
//     amount chunks and five distinct (amount, time) prefixes, so each
//     prefix state is computed once per payment and shared.
//   - FNV-1a is a serial multiply chain, but chains of different rows
//     are independent. The plan groups them so that AppendFingerprints
//     folds four or eight of them at once, each in its own register,
//     and runs at the multiplier's throughput rather than its latency.
type FingerprintPlan struct {
	// timed lists the distinct (amount, time) prefixes with a time
	// level, padded with throwaway entries to a multiple of four lanes.
	timed []planPair
	// rowPre maps every row to its prefix state in AppendFingerprints'
	// pre array: the amount level alone (0 = offset basis, nothing
	// folded) or preTimed+k for timed[k].
	rowPre []int8
	// curRows / dstRows index the rows whose resolution selects the
	// currency / destination feature, in row order.
	curRows []int32
	dstRows []int32
}

type planPair struct {
	amt int8 // AmountRes (0 = off)
	tim int8 // TimeRes (never off)
}

// The prefix state array: slots 0–4 hold the offset basis and the four
// amount levels, and the timed prefixes start at preTimed. At most
// 5 × 4 = 20 timed prefixes exist, a whole number of four-lane groups.
const (
	preTimed = 1 + int(AmountExact)
	preLen   = preTimed + preTimed*int(TimeDays)
)

// NewFingerprintPlan compiles a resolution list. The plan is immutable
// and safe for concurrent use by any number of goroutines. It panics on
// an amount or time level outside Table I's, as Fingerprint does.
func NewFingerprintPlan(resolutions []Resolution) *FingerprintPlan {
	p := &FingerprintPlan{rowPre: make([]int8, len(resolutions))}
	for i, r := range resolutions {
		if r.Amount < AmountOff || r.Amount > AmountExact || r.Time < TimeOff || r.Time > TimeDays {
			panic(fmt.Sprintf("deanon: resolution %d has a level out of range: %+v", i, r))
		}
		if r.Currency {
			p.curRows = append(p.curRows, int32(i))
		}
		if r.Destination {
			p.dstRows = append(p.dstRows, int32(i))
		}
		if r.Time == TimeOff {
			p.rowPre[i] = int8(r.Amount)
			continue
		}
		pair := planPair{amt: int8(r.Amount), tim: int8(r.Time)}
		k := slices.Index(p.timed, pair)
		if k < 0 {
			k = len(p.timed)
			p.timed = append(p.timed, pair)
		}
		p.rowPre[i] = int8(preTimed + k)
	}
	for len(p.timed)%4 != 0 {
		p.timed = append(p.timed, planPair{tim: int8(TimeSeconds)})
	}
	return p
}

// Rows returns the number of resolutions the plan fingerprints.
func (p *FingerprintPlan) Rows() int { return len(p.rowPre) }

// AppendFingerprints appends one fingerprint per plan row to out and
// returns the extended slice. Each appended value is bit-identical to
// e.Fingerprint (and FingerprintOf) for the corresponding resolution —
// the plan only reorders work, never the per-row byte sequence.
//
// Every stage folds independent FNV states held in local variables:
// four lanes where each lane reads its own chunk (amount levels, then
// (amount, time) prefixes), eight where the lanes share one chunk
// (currency, then destination), with partial groups padded by
// throwaway lanes. The four amount levels are folded whether or not a
// row reads them.
func (e *FeatureEnc) AppendFingerprints(p *FingerprintPlan, out []Fingerprint) []Fingerprint {
	var pre [preLen]uint64
	pre[0] = fnvOffset64
	st := [4]uint64{fnvOffset64, fnvOffset64, fnvOffset64, fnvOffset64}
	fnv4(&st, e.amt[0][:], e.amt[1][:], e.amt[2][:], e.amt[3][:])
	copy(pre[1:preTimed], st[:])
	for k := 0; k+4 <= len(p.timed); k += 4 {
		g := p.timed[k : k+4]
		st = [4]uint64{pre[g[0].amt], pre[g[1].amt], pre[g[2].amt], pre[g[3].amt]}
		fnv4(&st, e.tim[g[0].tim-1][:], e.tim[g[1].tim-1][:], e.tim[g[2].tim-1][:], e.tim[g[3].tim-1][:])
		copy(pre[preTimed+k:], st[:])
	}
	start := len(out)
	for _, k := range p.rowPre {
		out = append(out, Fingerprint(pre[k]))
	}
	rows := out[start:]
	foldShared(rows, p.curRows, e.cur[:])
	foldShared(rows, p.dstRows, e.dst[:])
	return out
}

// foldShared folds chunk into rows[i] for every i in sel, eight lanes
// at a time; the lanes of a partial last group past its rows are thrown
// away.
func foldShared(rows []Fingerprint, sel []int32, chunk []byte) {
	for len(sel) > 0 {
		g := sel[:min(len(sel), 8)]
		var st [8]uint64
		for j, ri := range g {
			st[j] = uint64(rows[ri])
		}
		fnv8(&st, chunk)
		for j, ri := range g {
			rows[ri] = Fingerprint(st[j])
		}
		sel = sel[len(g):]
	}
}

// fnv4 folds chunk cj into lane st[j], the four states held in
// registers for the whole fold. The chunks must be equally long.
func fnv4(st *[4]uint64, c0, c1, c2, c3 []byte) {
	h0, h1, h2, h3 := st[0], st[1], st[2], st[3]
	c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
	for b, x := range c0 {
		h0 = (h0 ^ uint64(x)) * fnvPrime64
		h1 = (h1 ^ uint64(c1[b])) * fnvPrime64
		h2 = (h2 ^ uint64(c2[b])) * fnvPrime64
		h3 = (h3 ^ uint64(c3[b])) * fnvPrime64
	}
	st[0], st[1], st[2], st[3] = h0, h1, h2, h3
}

// fnv8 folds one chunk into all eight lanes of st, the states held in
// registers for the whole fold.
func fnv8(st *[8]uint64, chunk []byte) {
	h0, h1, h2, h3 := st[0], st[1], st[2], st[3]
	h4, h5, h6, h7 := st[4], st[5], st[6], st[7]
	for _, c := range chunk {
		x := uint64(c)
		h0 = (h0 ^ x) * fnvPrime64
		h1 = (h1 ^ x) * fnvPrime64
		h2 = (h2 ^ x) * fnvPrime64
		h3 = (h3 ^ x) * fnvPrime64
		h4 = (h4 ^ x) * fnvPrime64
		h5 = (h5 ^ x) * fnvPrime64
		h6 = (h6 ^ x) * fnvPrime64
		h7 = (h7 ^ x) * fnvPrime64
	}
	st[0], st[1], st[2], st[3] = h0, h1, h2, h3
	st[4], st[5], st[6], st[7] = h4, h5, h6, h7
}
