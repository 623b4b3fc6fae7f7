package netstream

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"strconv"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

// appendFrame appends ev to dst as "crc32hex SP json LF", the payload
// byte for byte json.Marshal(ev), and fails where json.Marshal does: on
// a time RFC 3339 cannot say (year past 9999, zone hour past 23). node
// is ev.Node's text, supplied by the caller so an encoder can memoise it.
func appendFrame(dst []byte, ev *consensus.Event, node string) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `00000000 {"kind":`...)
	dst = strconv.AppendInt(dst, int64(ev.Kind), 10)
	if ev.StreamSeq != 0 {
		dst = append(dst, `,"stream_seq":`...)
		dst = strconv.AppendUint(dst, ev.StreamSeq, 10)
	}
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"ledger_hash":"`...)
	dst = ev.LedgerHash.AppendHex(dst)
	dst = append(dst, `","node":"`...)
	dst = append(dst, node...)
	if len(ev.Signature) > 0 {
		dst = append(dst, `","signature":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, ev.Signature)
	}
	dst = append(dst, `","time":"`...)
	at := len(dst)
	dst = ev.Time.AppendFormat(dst, time.RFC3339Nano)
	if z := dst[len(dst)-6:]; dst[at+4] != '-' || z[5] != 'Z' && (z[0] >= '0' && z[0] <= '9' || z[1] > '2' || z[1] == '2' && z[2] > '3') {
		return dst[:start], errors.New("netstream: event time outside RFC 3339")
	}
	dst = append(dst, '"')
	if ev.TxCount != 0 {
		dst = append(dst, `,"tx_count":`...)
		dst = strconv.AppendInt(dst, int64(ev.TxCount), 10)
	}
	if len(ev.PageData) > 0 {
		dst = append(dst, `,"page_data":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, ev.PageData)
		dst = append(dst, '"')
	}
	for i := range ev.TxHashes {
		sep := `","`
		if i == 0 {
			sep = `,"tx_hashes":["`
		}
		dst = ev.TxHashes[i].AppendHex(append(dst, sep...))
	}
	if len(ev.TxHashes) > 0 {
		dst = append(dst, `"]`...)
	}
	dst = append(dst, '}')
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start+9:]))
	hex.Encode(dst[start:], crc[:])
	return append(dst, '\n'), nil
}

// nodeMemoMax bounds decoder.nodes and nodeTexts; the paper's
// collection windows saw under 40 validators each.
const nodeMemoMax = 1024

// nodeTexts memoises NodeID → node-key text for one encoding goroutine,
// so base58check runs once per validator and not once per frame. It
// starts over at nodeMemoMax entries.
type nodeTexts map[addr.NodeID]string

// text is id.String(), through the memo.
func (m *nodeTexts) text(id addr.NodeID) string {
	if t, ok := (*m)[id]; ok {
		return t
	}
	t := id.String()
	if *m == nil || len(*m) >= nodeMemoMax {
		*m = make(nodeTexts)
	}
	(*m)[id] = t
	return t
}

// decoder turns wire lines back into events, for one reading goroutine.
type decoder struct {
	// nodes memoises node-key text → NodeID, so base58check runs once per
	// validator and not once per validation. It is keyed on the whole
	// text, holds only texts that passed the check and starts over at
	// nodeMemoMax entries: a peer can neither poison nor grow it.
	nodes map[string]addr.NodeID
}

// decode parses a wire line. ok is false for any malformed, corrupted,
// or truncated frame.
func (d *decoder) decode(line []byte) (ev consensus.Event, ok bool) {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) < 10 || line[8] != ' ' {
		return ev, false
	}
	var crc [4]byte
	if _, err := hex.Decode(crc[:], line[:8]); err != nil {
		return ev, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crc[:]) {
		return ev, false
	}
	if d.parse(payload, &ev) {
		return ev, true
	}
	return decodeJSON(payload)
}

// decodeJSON is the general path and the definition of what a payload
// means. It is a function of its own so that the Event json.Unmarshal
// makes escape is not the one the fast path returns.
func decodeJSON(payload []byte) (ev consensus.Event, ok bool) {
	return ev, json.Unmarshal(payload, &ev) == nil
}

// parse decodes the canonical payload appendFrame writes: those keys in
// that order, no whitespace, no escapes, non-negative decimal integers.
// On anything else it reports false and leaves ev half-filled. Field
// texts go through the decoders encoding/json would call.
func (d *decoder) parse(p []byte, ev *consensus.Event) bool {
	s := scanner{p: p}
	s.lit(`{"kind":`)
	ev.Kind = consensus.EventKind(s.int())
	if s.has(`,"stream_seq":`) {
		ev.StreamSeq = s.uint()
	}
	s.lit(`,"seq":`)
	ev.Seq = s.uint()
	s.lit(`,"ledger_hash":"`)
	s.check(ev.LedgerHash.UnmarshalText(s.text()))
	s.lit(`,"node":"`)
	s.check(d.node(s.text(), &ev.Node))
	if s.has(`,"signature":"`) {
		ev.Signature = s.base64()
	}
	s.lit(`,"time":"`)
	s.check(ev.Time.UnmarshalText(s.text()))
	if s.has(`,"tx_count":`) {
		ev.TxCount = s.int()
	}
	if s.has(`,"page_data":"`) {
		ev.PageData = s.base64()
	}
	if s.has(`,"tx_hashes":["`) {
		// One member is 64 digits, two quotes and a comma.
		ev.TxHashes = make([]ledger.Hash, 0, (bytes.IndexByte(s.p, ']')+3)/67)
		for more := true; more; more = s.has(`,"`) {
			var h ledger.Hash
			s.check(h.UnmarshalText(s.text()))
			ev.TxHashes = append(ev.TxHashes, h)
		}
		s.lit(`]`)
	}
	s.lit(`}`)
	return !s.bad && len(s.p) == 0
}

// node resolves a node-key text through the memo.
func (d *decoder) node(text []byte, id *addr.NodeID) error {
	var hit bool
	if *id, hit = d.nodes[string(text)]; hit {
		return nil
	}
	if err := id.UnmarshalText(text); err != nil {
		return err
	}
	if d.nodes == nil || len(d.nodes) >= nodeMemoMax {
		d.nodes = make(map[string]addr.NodeID)
	}
	d.nodes[string(text)] = *id
	return nil
}

// scanner walks a payload left to right. The first surprise sets bad;
// later steps may still move but nothing clears it.
type scanner struct {
	p   []byte
	bad bool
}

func (s *scanner) check(err error) { s.bad = s.bad || err != nil }

// has consumes lit if it comes next.
func (s *scanner) has(lit string) bool {
	if s.bad || len(s.p) < len(lit) || string(s.p[:len(lit)]) != lit {
		return false
	}
	s.p = s.p[len(lit):]
	return true
}

// lit requires lit next.
func (s *scanner) lit(lit string) { s.bad = !s.has(lit) }

// uint reads a JSON integer: digits, no sign, no leading zero, no
// overflow. What may follow it is the next lit's business.
func (s *scanner) uint() (v uint64) {
	i := 0
	for ; i < len(s.p) && s.p[i]-'0' <= 9; i++ {
		c := uint64(s.p[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			s.bad = true
			return 0
		}
		v = v*10 + c
	}
	s.bad = s.bad || i == 0 || i > 1 && s.p[0] == '0'
	s.p = s.p[i:]
	return v
}

// int is uint within the platform's int.
func (s *scanner) int() int {
	v := s.uint()
	s.bad = s.bad || v > math.MaxInt
	return int(v)
}

// text reads to the closing quote. Judging what is inside is the field's
// own decoder's job; none of them takes a backslash or a control
// character, which is all JSON would have treated differently.
func (s *scanner) text() []byte {
	i := bytes.IndexByte(s.p, '"')
	if i < 0 {
		s.bad = true
		return nil
	}
	t := s.p[:i]
	s.p = s.p[i+1:]
	return t
}

// base64 reads a []byte field the way encoding/json does. It declines ""
// (json makes that an empty non-nil slice) and a raw CR or LF, which
// encoding/base64 skips but JSON forbids inside a string.
func (s *scanner) base64() []byte {
	t := s.text()
	if s.bad || len(t) == 0 || bytes.IndexByte(t, '\r') >= 0 || bytes.IndexByte(t, '\n') >= 0 {
		s.bad = true
		return nil
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(t)))
	n, err := base64.StdEncoding.Decode(out, t)
	s.check(err)
	return out[:n]
}
