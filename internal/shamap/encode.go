// Node encoding: the canonical byte form of a tree node, which is both
// what a nodestore persists and the preimage of the node's hash —
// hash = SHA512Half(encoding) — so content-addressed storage verifies
// itself on read.
//
//	leaf:  'L' ‖ key[32] ‖ value
//	inner: 'I' ‖ bitmap(u16 BE) ‖ hash[32] per set bit, nibble order
//
// The leaf value's length is implicit (the store frames records), and
// an inner node stores hashes only for present children, so a sparse
// node costs 3 + 32·children bytes.
package shamap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ripplestudy/internal/ledger"
)

const (
	kindLeaf  = 'L'
	kindInner = 'I'
)

// appendNode appends the canonical encoding of n to dst. Inner children
// must already carry valid hashes.
func appendNode(dst []byte, n *node) []byte {
	if n.leaf {
		dst = append(dst, kindLeaf)
		dst = append(dst, n.key[:]...)
		return append(dst, n.value...)
	}
	var bitmap uint16
	for i, c := range n.children {
		if c != nil {
			bitmap |= 1 << uint(i)
		}
	}
	dst = append(dst, kindInner)
	dst = binary.BigEndian.AppendUint16(dst, bitmap)
	for _, c := range n.children {
		if c != nil {
			dst = append(dst, c.hash[:]...)
		}
	}
	return dst
}

// splitNode validates a canonical node encoding and splits it: a leaf's
// body is key ‖ value; an inner node's is its bitmap's child hashes,
// packed in nibble order and none of them zero. body aliases data.
func splitNode(data []byte) (leaf bool, bitmap uint16, body []byte, err error) {
	if len(data) == 0 {
		return false, 0, nil, fmt.Errorf("shamap: empty node record")
	}
	switch data[0] {
	case kindLeaf:
		if len(data) < 1+32 {
			return false, 0, nil, fmt.Errorf("shamap: leaf record truncated at %d bytes", len(data))
		}
		return true, 0, data[1:], nil
	case kindInner:
		if len(data) < 3 {
			return false, 0, nil, fmt.Errorf("shamap: inner record truncated at %d bytes", len(data))
		}
		bitmap = binary.BigEndian.Uint16(data[1:3])
		if want := 3 + 32*bits.OnesCount16(bitmap); len(data) != want {
			return false, 0, nil, fmt.Errorf("shamap: inner record is %d bytes, bitmap %04x wants %d", len(data), bitmap, want)
		}
		body = data[3:]
		for off := 0; off < len(body); off += 32 {
			if ledger.Hash(body[off : off+32]).IsZero() {
				return false, 0, nil, fmt.Errorf("shamap: inner record carries a zero child hash (child %d)", off/32)
			}
		}
		return false, bitmap, body, nil
	default:
		return false, 0, nil, fmt.Errorf("shamap: unknown node kind 0x%02x", data[0])
	}
}
