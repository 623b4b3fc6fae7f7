package netstream

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

// goldenFile holds goldenEvents as the commit before the hand-written
// codec framed them (encoding/json + fmt.Appendf). It is never
// regenerated from this tree: it stands in for a peer that predates
// wire.go.
const goldenFile = "testdata/golden.frames"

// goldenEvents is one of every shape the stream carries, with explicit
// stream sequences so a Server frames them exactly as listed.
func goldenEvents() []consensus.Event {
	var evs []consensus.Event
	for i := uint64(1); i <= 4; i++ {
		evs = append(evs, testEvent(i)) // signed validations
	}
	unsigned := testEvent(5)
	unsigned.Signature = nil
	evs = append(evs, unsigned)

	page := make([]byte, 700)
	for i := range page {
		page[i] = byte(i * 7)
	}
	h := ledger.SHA512Half([]byte("close"))
	at := time.Date(2016, 7, 1, 12, 30, 15, 0, time.UTC)
	evs = append(evs,
		consensus.Event{Kind: consensus.EventLedgerClosed, Seq: 21, LedgerHash: h, Time: at, TxCount: 12, PageData: page},
		consensus.Event{Kind: consensus.EventLedgerClosed, Seq: 22, LedgerHash: h, Time: at.Add(1234567 * time.Nanosecond), TxCount: 3,
			TxHashes: []ledger.Hash{ledger.SHA512Half([]byte("a")), ledger.SHA512Half([]byte("b")), ledger.SHA512Half([]byte("c"))}},
		consensus.Event{Kind: consensus.EventProposal, Seq: 23, LedgerHash: h, Node: addr.KeyPairFromSeed(9).NodeID(),
			Time: at.In(time.FixedZone("", 5*3600+1800)), TxHashes: []ledger.Hash{h}},
	)
	for i := range evs {
		evs[i].StreamSeq = uint64(i) + 1
	}
	return evs
}

// TestClientDecodesParentServer plays the golden bytes, what the parent
// commit's Server writes for goldenEvents, to this tree's Client.
func TestClientDecodesParentServer(t *testing.T) {
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err == nil {
			conn.Write(golden)
		}
	}()
	c, err := DialResume(ln.Addr().String(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []consensus.Event
	if err := c.Events(func(ev consensus.Event) error { got = append(got, ev); return nil }); err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()
	lines := bytes.SplitAfter(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	if len(got) != len(want) || len(lines) != len(want) || c.BadFrames() != 0 {
		t.Fatalf("decoded %d of %d golden frames (%d lines), %d bad", len(got), len(want), len(lines), c.BadFrames())
	}
	for i, ev := range got {
		ref, ok := refDecode(lines[i])
		if !ok || !reflect.DeepEqual(ev, ref) {
			t.Errorf("frame %d: got %+v, the parent's decoder gives %+v (ok=%v)", i, ev, ref, ok)
		}
		if !ev.Time.Equal(want[i].Time) || ev.Seq != want[i].Seq || !bytes.Equal(ev.PageData, want[i].PageData) {
			t.Errorf("frame %d does not carry event %d: %+v", i, i, ev)
		}
		var fast consensus.Event
		if !new(decoder).parse(bytes.TrimSuffix(lines[i][9:], []byte("\n")), &fast) {
			t.Errorf("frame %d from the parent's encoder was declined by the fast path", i)
		}
	}
}

// TestServerWritesParentBytes has this tree's Server publish
// goldenEvents to a raw socket: the parent commit's Client would read
// exactly the golden bytes.
func TestServerWritesParentBytes(t *testing.T) {
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"resume_after":0}` + "\n")); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)
	for _, ev := range goldenEvents() {
		s.Publish(ev)
	}
	got := make([]byte, len(golden))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("server wrote\n%s\nthe parent wrote\n%s", got, golden)
	}
}
