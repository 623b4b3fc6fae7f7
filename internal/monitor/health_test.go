package monitor

import (
	"strings"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/netstream"
)

func validEvent(seq uint64) consensus.Event {
	kp := addr.KeyPairFromSeed(seq)
	h := ledger.SHA512Half([]byte{byte(seq)})
	return consensus.Event{
		Kind:       consensus.EventValidation,
		Seq:        seq,
		LedgerHash: h,
		Node:       kp.NodeID(),
		Signature:  kp.Sign(h[:]),
		Time:       time.Date(2015, 12, 1, 0, 0, int(seq), 0, time.UTC),
	}
}

// TestCollectorSkipsMalformedEvents: garbage from a degraded stream is
// counted, not recorded, and never aborts the collection.
func TestCollectorSkipsMalformedEvents(t *testing.T) {
	c := NewCollector()
	c.Record(validEvent(1))

	c.Record(consensus.Event{})                                  // unknown kind
	c.Record(consensus.Event{Kind: consensus.EventKind(99)})     // bogus kind
	c.Record(consensus.Event{Kind: consensus.EventValidation})   // zero hash, zero node
	c.Record(consensus.Event{Kind: consensus.EventLedgerClosed}) // zero hash
	ev := validEvent(2)
	ev.Node = addr.NodeID{}
	c.Record(ev) // validation without a signer

	c.Record(validEvent(3))
	closed := consensus.Event{
		Kind:       consensus.EventLedgerClosed,
		LedgerHash: validEvent(1).LedgerHash,
	}
	c.Record(closed)

	if c.Events() != 3 {
		t.Errorf("Events = %d, want 3", c.Events())
	}
	if c.Malformed() != 5 {
		t.Errorf("Malformed = %d, want 5", c.Malformed())
	}
	rep := c.Report("test")
	if len(rep.Validators) != 2 {
		t.Errorf("validators = %d, want 2 (malformed events must not create validators)", len(rep.Validators))
	}
}

func TestCollectionHealthReport(t *testing.T) {
	col := NewCollector()
	col.Record(validEvent(1))
	col.Record(consensus.Event{}) // malformed

	h := Health(netstream.ClientStats{
		Connects:   3,
		Reconnects: 2,
		Gaps:       1,
		Duplicates: 4,
		BadFrames:  5,
	}, col)
	if h.Reconnects != 2 || h.Gaps != 1 || h.BadFrames != 5 || h.Events != 1 || h.Malformed != 1 {
		t.Errorf("health mismapped: %+v", h)
	}
	if h.Complete() {
		t.Error("a run with malformed events is not complete")
	}
	var b strings.Builder
	if err := h.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"reconnects", "2", "bad frames skipped", "lossy"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	cleanCol := NewCollector()
	cleanCol.Record(validEvent(1))
	clean := Health(netstream.ClientStats{Connects: 1}, cleanCol)
	if !clean.Complete() {
		t.Error("clean run must report complete")
	}
	if !strings.Contains(clean.String(), "complete") {
		t.Errorf("String() = %q, want a 'complete' verdict", clean.String())
	}
	if clean.Attacked() {
		t.Errorf("clean run reports an attack: %+v", clean.Attack)
	}
}

// TestZeroEventCollectionNotComplete: a subscription that delivered
// nothing proves nothing — it must not masquerade as a clean window.
func TestZeroEventCollectionNotComplete(t *testing.T) {
	empty := Health(netstream.ClientStats{Connects: 1}, NewCollector())
	if empty.Complete() {
		t.Error("zero-event collection reported complete")
	}
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("String() = %q, want an 'empty' verdict", empty.String())
	}
	var b strings.Builder
	if err := empty.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "collection empty") {
		t.Errorf("report missing the empty-stream verdict:\n%s", b.String())
	}
}
