package netstream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

// encodeFrame renders one event as a fresh wire line.
func encodeFrame(ev consensus.Event) ([]byte, error) { return appendFrame(nil, &ev) }

// refEncode and refDecode are the codec as it was before wire.go,
// reflection and all: the oracle every test here compares against.
func refEncode(ev consensus.Event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

func refDecode(line []byte) (ev consensus.Event, ok bool) {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) < 10 || line[8] != ' ' {
		return ev, false
	}
	crc, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return ev, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return ev, false
	}
	if json.Unmarshal(payload, &ev) != nil {
		return ev, false
	}
	return ev, true
}

// framed wraps a payload in a valid checksum, so a mutation reaches the
// parsers instead of dying at the CRC.
func framed(payload string) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload))
}

// payloadOf strips the checksum and newline off a line.
func payloadOf(line []byte) string { return strings.TrimRight(string(line[9:]), "\r\n") }

// closeEvent is an EventLedgerClosed carrying n bytes of page payload.
func closeEvent(seq uint64, n int) consensus.Event {
	page := make([]byte, n)
	rand.New(rand.NewSource(int64(seq))).Read(page)
	return consensus.Event{
		Kind: consensus.EventLedgerClosed, StreamSeq: seq, Seq: seq, LedgerHash: ledger.SHA512Half(page),
		Time: time.Date(2016, 11, 1, 0, 0, 0, int(seq), time.UTC), TxCount: n / 100, PageData: page,
	}
}

// decodeSeeds is the corpus for FuzzDecodeFrame: every canonical shape,
// and for each class of departure from it one line that encoding/json
// takes and one it refuses.
func decodeSeeds() [][]byte {
	var seeds [][]byte
	for _, ev := range goldenEvents() {
		line, _ := refEncode(ev)
		seeds = append(seeds, line)
	}
	bare := testEvent(7) // no stream_seq, no signature
	bare.Signature = nil
	bareLine, _ := refEncode(bare)
	seeds = append(seeds, bareLine, bytes.TrimSuffix(bareLine, []byte("\n")), append(bytes.TrimSuffix(bareLine, []byte("\n")), "\r\n"...))
	big, _ := refEncode(closeEvent(9, 5000))
	seeds = append(seeds, big)

	v := payloadOf(seeds[0])  // signed validation
	cl := payloadOf(seeds[5]) // close with page_data
	th := payloadOf(seeds[6]) // close with tx_hashes
	node := addr.KeyPairFromSeed(1).NodeID().String()
	sub := func(s, old, new string) string {
		if !strings.Contains(s, old) {
			panic("seed mutation finds no " + old + " in " + s)
		}
		return strings.Replace(s, old, new, 1)
	}
	for _, p := range []string{
		// Other key order, whitespace, case-folded and unknown keys.
		sub(v, `{"kind":1,"stream_seq":1,`, `{"stream_seq":1,"kind":1,`),
		sub(v, `{"kind":1,`, `{ "kind" : 1 ,`),
		v + " ",
		" " + v,
		sub(v, `"kind"`, `"KIND"`),
		sub(v, `{"kind":1,`, `{"kind":1,"extra":{"a":[1,2]},`),
		// Escapes inside each kind of string.
		sub(v, `"ledger_hash":"7B`, `"ledger_hash":"\u0037B`),
		sub(v, `"node":"n9`, `"node":"\u006e9`),
		sub(v, `"time":"2015`, `"time":"\u0032015`),
		sub(v, `"signature":"Eh`, `"signature":"\u0045h`),
		sub(v, `"signature":"Eh`, `"signature":"Eh\r`),
		sub(v, `"signature":"Eh`, "\"signature\":\"Eh\r"),
		sub(v, `"signature":"Eh`, "\"signature\":\"Eh\n"),
		sub(v, `"signature":"Eh`, "\"signature\":\"\tEh"),
		// Numbers: leading zeros, signs, fractions, exponents, overflow.
		sub(v, `"seq":1,`, `"seq":01,`),
		sub(v, `"seq":1,`, `"seq":-1,`),
		sub(v, `"seq":1,`, `"seq":1.0,`),
		sub(v, `"seq":1,`, `"seq":1e2,`),
		sub(v, `"seq":1,`, `"seq":18446744073709551615,`),
		sub(v, `"seq":1,`, `"seq":18446744073709551616,`),
		sub(v, `"seq":1,`, `"seq":99999999999999999999999999,`),
		sub(v, `"seq":1,`, `"seq":null,`),
		sub(v, `"seq":1,`, `"seq":"1",`),
		sub(v, `"stream_seq":1,`, `"stream_seq":0,`),
		sub(v, `"kind":1,`, `"kind":-0,`),
		sub(v, `"kind":1,`, `"kind":-3,`),
		sub(v, `"kind":1,`, `"kind":9223372036854775807,`),
		sub(v, `"kind":1,`, `"kind":9223372036854775808,`),
		sub(v, `"kind":1,`, `"kind":-9223372036854775808,`),
		sub(cl, `"tx_count":12`, `"tx_count":0`),
		sub(cl, `"tx_count":12`, `"tx_count":-7`),
		sub(cl, `"tx_count":12`, `"tx_count":-`),
		// Strings: bad base64, empty and null values, lower-case hex, a
		// node text that fails its checksum, times RFC 3339 refuses.
		sub(v, `=="`, `="`),
		sub(v, `=="`, `"`),
		sub(v, `"signature":"Eh`, `"signature":"E`),
		sub(v, `"signature":"Eh`, `"signature":"","x":"`),
		sub(cl, `"page_data":"`, `"page_data":"","x":"`),
		sub(cl, `"page_data":"`, `"page_data":null,"x":"`),
		sub(v, `"ledger_hash":"7B54B6`, `"ledger_hash":"7b54b6`),
		sub(v, `"ledger_hash":"7B`, `"ledger_hash":"7`),
		sub(v, `"ledger_hash":"7B`, `"ledger_hash":"ZZ`),
		sub(v, node, node[:len(node)-1]+"r"),
		sub(v, node, ""),
		sub(v, node, strings.Repeat("r", 40)),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T00:00:01+05:30"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T00:00:01.000000001Z"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T00:00:01+00:00"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T00:00:01+24:00"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01 00:00:01Z"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T0:00:01Z"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":"2015-12-01T00:00:01,5Z"`),
		sub(v, `"time":"2015-12-01T00:00:01Z"`, `"time":null`),
		// tx_hashes: empty, null, a short member, a trailing comma.
		sub(th, `"tx_hashes":["`, `"tx_hashes":[],"x":["`),
		sub(th, `"tx_hashes":["`, `"tx_hashes":null,"x":["`),
		sub(th, `"]}`, `",]}`),
		sub(th, `"]}`, `"}`),
		sub(th, `"]}`, `0"]}`),
		// Duplicate, missing and trailing pieces.
		sub(v, `"seq":1,`, `"seq":1,"seq":2,`),
		sub(v, `"kind":1,`, ``),
		sub(v, `,"time":"2015-12-01T00:00:01Z"`, ``),
		v + "}",
		v + v,
		v[:len(v)-1],
		v[:len(v)/2],
		`{}`, `null`, `[]`, ``, `{"kind":1}`,
	} {
		seeds = append(seeds, framed(p))
	}
	// Frame-level damage: no checksum, a wrong one, upper-case hex digits.
	seeds = append(seeds, []byte(v+"\n"), []byte("00000000 "+v+"\n"), []byte("not a frame at all\n"),
		append(bytes.ToUpper(seeds[0][:8]), seeds[0][8:]...))
	return seeds
}

// FuzzDecodeFrame pins the hand-written decoder to the reflective one:
// for any line at all, the same verdict and, when the line is accepted,
// the same Event down to nil-versus-empty slices and the time's
// Location. It decodes twice, on a decoder that has seen every seed
// (warm memo) and on a new one.
func FuzzDecodeFrame(f *testing.F) {
	for _, line := range decodeSeeds() {
		f.Add(line)
	}
	var warm decoder
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantOK := refDecode(line)
		for name, d := range map[string]*decoder{"warm": &warm, "cold": new(decoder)} {
			got, ok := d.decode(line)
			if ok != wantOK {
				t.Fatalf("%s decoder: ok=%v, encoding/json says %v for %q", name, ok, wantOK, line)
			}
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s decoder: %q\n got %#v\nwant %#v", name, line, got, want)
			}
		}
	})
}

// TestCanonicalFramesTakeTheFastPath is the other half of the
// differential: agreeing with encoding/json by always deferring to it
// would pass FuzzDecodeFrame and gain nothing.
func TestCanonicalFramesTakeTheFastPath(t *testing.T) {
	evs := append(goldenEvents(), closeEvent(3, 4096), consensus.Event{})
	bare := testEvent(7)
	bare.Signature = nil
	evs = append(evs, bare)
	var d decoder
	for i, ev := range evs {
		line, err := encodeFrame(ev)
		if err != nil {
			t.Fatal(err)
		}
		var got consensus.Event
		if !d.parse([]byte(payloadOf(line)), &got) {
			t.Errorf("event %d: own frame declined: %s", i, line)
		}
		if want, _ := refDecode(line); !reflect.DeepEqual(got, want) {
			t.Errorf("event %d: fast path %+v, encoding/json %+v", i, got, want)
		}
	}
}

// FuzzEncodeFrame pins appendFrame to json.Marshal byte for byte, and
// error for error, over generated events.
func FuzzEncodeFrame(f *testing.F) {
	// kind, stream seq, seq, hash seed, node seed (0 = zero node), signature, unix s, ns, zone offset s, tx count, page data, tx hashes
	f.Add(1, uint64(1), uint64(2), []byte("h"), uint64(3), []byte("sig"), int64(1448928000), int64(0), 0, 0, []byte(nil), uint8(0))
	f.Add(2, uint64(0), uint64(0), []byte(nil), uint64(0), []byte(nil), int64(1467376215), int64(999999999), 0, 41, bytes.Repeat([]byte{0xfb, 0xff}, 3000), uint8(0))
	f.Add(3, uint64(math.MaxUint64), uint64(math.MaxUint64), []byte("p"), uint64(9), []byte{}, int64(1467376215), int64(120000000), 19800, -5, []byte{}, uint8(5))
	f.Add(-1, uint64(7), uint64(7), []byte("y"), uint64(1), []byte{0}, int64(253402300800), int64(0), 0, math.MinInt, []byte("<&> "), uint8(1))   // year 10000
	f.Add(0, uint64(7), uint64(7), []byte("y"), uint64(1), []byte{0}, int64(-62167219201), int64(5), 0, math.MaxInt, []byte{0}, uint8(0))         // year -1
	f.Add(1, uint64(7), uint64(7), []byte("z"), uint64(1), []byte(nil), int64(1448928000), int64(0), 24*3600, 1, []byte(nil), uint8(0))           // zone hour 24
	f.Add(1, uint64(7), uint64(7), []byte("z"), uint64(1), []byte(nil), int64(1448928000), int64(0), -100*3600, 1, []byte(nil), uint8(0))         // three-digit zone hour
	f.Add(1, uint64(7), uint64(7), []byte("z"), uint64(1), []byte(nil), int64(1448928000), int64(0), -23*3600-59*60-59, 1, []byte(nil), uint8(0)) // zone with seconds
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		blob := make([]byte, rng.Intn(2000))
		rng.Read(blob)
		f.Add(rng.Intn(5), rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64)), blob[:len(blob)%9], uint64(rng.Intn(4)), blob[:len(blob)%70],
			rng.Int63n(4e9), rng.Int63n(1e9)*int64(rng.Intn(2)), (rng.Intn(3)-1)*rng.Intn(50000), rng.Intn(500)-20, blob, uint8(rng.Intn(6)))
	}
	f.Fuzz(func(t *testing.T, kind int, streamSeq, seq uint64, hash []byte, node uint64, sig []byte, sec, nsec int64, zone, txCount int, page []byte, nHashes uint8) {
		ev := consensus.Event{
			Kind: consensus.EventKind(kind), StreamSeq: streamSeq, Seq: seq, LedgerHash: ledger.SHA512Half(hash),
			Signature: sig, Time: time.Unix(sec, nsec).UTC(), TxCount: txCount, PageData: page,
		}
		if node != 0 {
			ev.Node = addr.KeyPairFromSeed(node).NodeID()
		}
		if zone != 0 {
			ev.Time = ev.Time.In(time.FixedZone("", zone))
		}
		for i := uint8(0); i < nHashes%32; i++ {
			ev.TxHashes = append(ev.TxHashes, ledger.SHA512Half(append([]byte{i}, hash...)))
		}
		want, wantErr := refEncode(ev)
		prefix := []byte("kept")
		got, err := appendFrame(prefix, &ev)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendFrame err=%v, json.Marshal err=%v for %+v", err, wantErr, ev)
		}
		if err != nil {
			want = nil
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("appendFrame wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
	})
}

// nodeFrame is a canonical validation from the i-th generated key.
func nodeFrame(i int) ([]byte, string) {
	ev := testEvent(uint64(i))
	ev.Signature = nil
	line, _ := encodeFrame(ev)
	return line, ev.Node.String()
}

// TestNodeMemoBounded: ten times more distinct validators than the memo
// holds never grow it past its bound, and every one still decodes.
func TestNodeMemoBounded(t *testing.T) {
	var d decoder
	for i := 1; i <= 10*nodeMemoMax; i++ {
		line, _ := nodeFrame(i)
		ev, ok := d.decode(line)
		if !ok || ev.Node != addr.KeyPairFromSeed(uint64(i)).NodeID() {
			t.Fatalf("validator %d: ok=%v node=%v", i, ok, ev.Node)
		}
		if len(d.nodes) > nodeMemoMax {
			t.Fatalf("memo holds %d node texts after %d validators, bound is %d", len(d.nodes), i, nodeMemoMax)
		}
	}
	if len(d.nodes) == 0 {
		t.Fatal("memo is never filled")
	}
}

// TestNodeMemoRefusesBadChecksum: a node text that fails base58check is
// rejected on every sight, warm memo or not, and is never stored.
func TestNodeMemoRefusesBadChecksum(t *testing.T) {
	good, text := nodeFrame(1)
	forged := text[:len(text)-1] + "r"
	if forged == text {
		forged = text[:len(text)-1] + "p"
	}
	bad := framed(strings.Replace(payloadOf(good), text, forged, 1))
	var d decoder
	for i := 0; i < 3; i++ {
		if _, ok := d.decode(good); !ok {
			t.Fatal("good frame rejected")
		}
		if ev, ok := d.decode(bad); ok {
			t.Fatalf("forged node text accepted as %v", ev.Node)
		}
		if _, stored := d.nodes[forged]; stored || len(d.nodes) != 1 {
			t.Fatalf("memo after a forged text: %v", d.nodes)
		}
	}
}

// TestNodeTextsBounded: the encode-side memo answers what String does,
// for the zero key too, and ten times more distinct validators than it
// holds never grow it past its bound.
func TestNodeTextsBounded(t *testing.T) {
	var m nodeTexts
	for i := 0; i <= 10*nodeMemoMax; i++ {
		var id addr.NodeID
		if i > 0 {
			id = addr.KeyPairFromSeed(uint64(i)).NodeID()
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm
			if got, want := m.text(id), id.String(); got != want {
				t.Fatalf("validator %d, pass %d: memo says %q, String %q", i, pass, got, want)
			}
		}
		if len(m) > nodeMemoMax {
			t.Fatalf("memo holds %d node texts after %d validators, bound is %d", len(m), i, nodeMemoMax)
		}
	}
}

// TestHelloCapped: a peer that sends bytes and no newline is hung up on
// at maxHelloBytes, not held for the hello timeout.
func TestHelloCapped(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithHelloTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte("x"), maxHelloBytes+1)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || n != 0 {
		t.Fatalf("server kept the connection (read %d bytes, err %v)", n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server was still buffering an endless hello after 5 s")
	}
	if got := s.NumSubscribers(); got != 0 {
		t.Fatalf("%d subscribers after an oversized hello", got)
	}
}

// TestOverlongFrameSkipped: a line past MaxFrameBytes is dropped while
// it streams in, counted once, and the client is back in step at its
// newline. A long line under the cap still decodes.
func TestOverlongFrameSkipped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	long, _ := encodeFrame(closeEvent(2, 200_000)) // several bufio buffers, under the cap
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		good1, _ := encodeFrame(testEvent(1))
		good3, _ := encodeFrame(testEvent(3))
		conn.Write(good1)
		conn.Write(bytes.Repeat([]byte("y"), MaxFrameBytes+3<<15))
		conn.Write([]byte("\n"))
		conn.Write(long)
		conn.Write(bytes.Repeat([]byte("z"), MaxFrameBytes+1)) // ends exactly at its newline
		conn.Write([]byte("\n"))
		conn.Write(good3)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []uint64
	if err := c.Events(func(ev consensus.Event) error {
		got = append(got, ev.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("events = %v, want [1 2 3]", got)
	}
	if bad := c.BadFrames(); bad != 2 {
		t.Errorf("BadFrames = %d, want 2 (one per overlong line)", bad)
	}
}

// TestRingAfterUnordered: Publish takes caller-assigned sequences in any
// order, and a resume must still get exactly the frames above its
// cursor, from one allocation however long the ring.
func TestRingAfterUnordered(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithReplayRing(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, seq := range []uint64{9, 5, 2, 7, 3, 8} { // 9 and 5 are evicted
		ev := testEvent(seq)
		ev.StreamSeq = seq
		s.Publish(ev)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []uint64
	for _, f := range s.ringAfterLocked(2) {
		got = append(got, f.seq)
	}
	if fmt.Sprint(got) != "[7 3 8]" {
		t.Errorf("ringAfterLocked(2) = %v, want [7 3 8]", got)
	}
	if n := len(s.ringAfterLocked(9)); n != 0 {
		t.Errorf("ringAfterLocked(9) = %d frames, want none", n)
	}
	if n := testing.AllocsPerRun(10, func() { s.ringAfterLocked(0) }); n != 1 {
		t.Errorf("ringAfterLocked allocates %v times, want once", n)
	}
}

var (
	sinkEvent consensus.Event
	sinkLine  []byte
)

func benchEvents() map[string]consensus.Event {
	validation := testEvent(4) // as the bench's fixtures stream them: unsigned
	validation.Signature = nil
	validation.StreamSeq = 123456
	return map[string]consensus.Event{"validation": validation, "close": closeEvent(4800, 1800)}
}

func BenchmarkDecodeFrame(b *testing.B) {
	for name, ev := range benchEvents() {
		line, _ := encodeFrame(ev)
		b.Run(name, func(b *testing.B) {
			var d decoder
			d.decode(line) // warm the node memo
			if name == "validation" {
				// A signed validation would allocate its signature; an
				// unsigned one on a known validator allocates nothing.
				if n := testing.AllocsPerRun(100, func() { sinkEvent, _ = d.decode(line) }); n != 0 {
					b.Fatalf("decoding a validation on a warm memo allocates %v times", n)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEvent, _ = d.decode(line)
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				sinkEvent, _ = refDecode(line)
			}
		})
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	for name, ev := range benchEvents() {
		ev := ev
		b.Run(name, func(b *testing.B) {
			var nodes nodeTexts // warm after the first frame, as in Publish
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLine, _ = appendFrameNode(sinkLine[:0], &ev, nodes.text(ev.Node))
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLine, _ = refEncode(ev)
			}
		})
	}
}
