package serve

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/deanon"
)

// TestProjectPayloadMatchesPage pins the in-place payload projection
// (ledger.TxIter, no *ledger.Page materialized) to the decoded-page
// projection: for every synthetic page, projected into scratch records
// reused page after page as producers reuse theirs, the two must carve
// identical parts — payments, hops, fingerprints, offer owners, failure
// counts.
func TestProjectPayloadMatchesPage(t *testing.T) {
	pages := genPages(t, 1500, 17)
	plan := deanon.NewFingerprintPlan(deanon.Figure3Rows)
	pr := newProjector(plan)

	var buf []byte
	var fromPage, fromPayload pageRecord
	sawFailed, sawOffers := false, false
	for _, p := range pages {
		pr.fromPage(p, &fromPage)
		buf = p.Encode(buf[:0])
		if err := pr.fromPayload(buf, &fromPayload); err != nil {
			t.Fatalf("page %d: fromPayload: %v", p.Header.Sequence, err)
		}
		if fromPage.seq != fromPayload.seq || fromPage.time != fromPayload.time {
			t.Fatalf("page %d: header fields diverge", p.Header.Sequence)
		}

		var a partArena
		fpA, ecoA := a.carve(&fromPage)
		fpB, ecoB := a.carve(&fromPayload)
		if !reflect.DeepEqual(ecoA.payments, ecoB.payments) {
			t.Fatalf("page %d: payment slabs diverge", p.Header.Sequence)
		}
		if !reflect.DeepEqual(ecoA.hops, ecoB.hops) {
			t.Fatalf("page %d: hop slabs diverge", p.Header.Sequence)
		}
		if !reflect.DeepEqual(fpA.fps, fpB.fps) {
			t.Fatalf("page %d: fingerprint slabs diverge", p.Header.Sequence)
		}
		if !reflect.DeepEqual(ecoA.offerOwners, ecoB.offerOwners) {
			t.Fatalf("page %d: offer owners diverge", p.Header.Sequence)
		}
		if ecoA.failed != ecoB.failed {
			t.Fatalf("page %d: failed counts diverge: %d != %d", p.Header.Sequence, ecoA.failed, ecoB.failed)
		}
		sawFailed = sawFailed || ecoA.failed > 0
		sawOffers = sawOffers || len(ecoA.offerOwners) > 0
	}
	// The differential is vacuous if the synth history never exercises
	// the non-payment branches.
	if !sawFailed {
		t.Error("no page with failed payments in the test history")
	}
	if !sawOffers {
		t.Error("no page with successful offers in the test history")
	}
}

// perChunk is how many elements of T one chunk slab holds.
func perChunk[T any]() int { return chunkBytes / int(unsafe.Sizeof(*new(T))) }

// TestCarvedPartsNeverAlias carves a whole history through one
// producer's scratch record and arena, long enough to cross at least
// three chunks of every kind. Only then, so that a part a later carve
// wrote into would show, every page's two parts must equal that page
// projected alone, and every carved slice must be exactly as long as
// its capacity, so no holder can append into a neighbour's elements.
func TestCarvedPartsNeverAlias(t *testing.T) {
	pages := genPages(t, 16000, 23)
	pr := newProjector(deanon.NewFingerprintPlan(deanon.Figure3Rows))

	var rec pageRecord
	arena := partArena{chunked: true}
	fps := make([]*fpPart, len(pages))
	ecos := make([]*ecoPart, len(pages))
	for i, p := range pages {
		pr.fromPage(p, &rec)
		fps[i], ecos[i] = arena.carve(&rec)
	}

	var nFps, nPayments, nHops, nOwners int
	for i, p := range pages {
		var alone pageRecord
		pr.fromPage(p, &alone)
		var single partArena
		wantFp, wantEco := single.carve(&alone)
		if !reflect.DeepEqual(fps[i], wantFp) {
			t.Fatalf("page %d: carved fingerprint part differs from the page projected alone", i)
		}
		if !reflect.DeepEqual(ecos[i], wantEco) {
			t.Fatalf("page %d: carved ecosystem part differs from the page projected alone", i)
		}
		for _, s := range []struct {
			kind     string
			len, cap int
		}{
			{"fps", len(fps[i].fps), cap(fps[i].fps)},
			{"payments", len(ecos[i].payments), cap(ecos[i].payments)},
			{"hops", len(ecos[i].hops), cap(ecos[i].hops)},
			{"offer owners", len(ecos[i].offerOwners), cap(ecos[i].offerOwners)},
		} {
			if s.len != s.cap {
				t.Fatalf("page %d: carved %s slice has len %d but cap %d", i, s.kind, s.len, s.cap)
			}
		}
		nFps += len(fps[i].fps)
		nPayments += len(ecos[i].payments)
		nHops += len(ecos[i].hops)
		nOwners += len(ecos[i].offerOwners)
	}

	// More than two chunks' worth of a kind means a third chunk was cut.
	for _, k := range []struct {
		kind      string
		n, perChk int
	}{
		{"fingerprint parts", len(pages), perChunk[fpPart]()},
		{"ecosystem parts", len(pages), perChunk[ecoPart]()},
		{"fingerprints", nFps, perChunk[deanon.Fingerprint]()},
		{"payments", nPayments, perChunk[paymentRecord]()},
		{"hops", nHops, perChunk[uint8]()},
		{"offer owners", nOwners, perChunk[addr.AccountID]()},
	} {
		t.Logf("%s: %d carved, %d per chunk", k.kind, k.n, k.perChk)
		if k.n <= 2*k.perChk {
			t.Errorf("%s: %d carved, fewer than three chunks of %d", k.kind, k.n, k.perChk)
		}
	}
}

// TestProjectPayloadRejectsMalformed checks the payload walk validates
// framing like the full decoder: garbage and trailing bytes must error,
// not silently project.
func TestProjectPayloadRejectsMalformed(t *testing.T) {
	pages := genPages(t, 50, 19)
	plan := deanon.NewFingerprintPlan(deanon.Figure3Rows)
	pr := newProjector(plan)
	buf := pages[0].Encode(nil)

	if err := pr.fromPayload([]byte{0xde, 0xad}, new(pageRecord)); err == nil {
		t.Error("garbage payload projected without error")
	}
	if err := pr.fromPayload(buf[:len(buf)-1], new(pageRecord)); err == nil {
		t.Error("truncated payload projected without error")
	}
	trailing := append(append([]byte(nil), buf...), 0x00)
	err := pr.fromPayload(trailing, new(pageRecord))
	if err == nil {
		t.Fatal("payload with trailing bytes projected without error")
	}
	if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing-byte error = %q, want mention of trailing bytes", err)
	}
}
