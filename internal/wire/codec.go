// Package wire defines every protocol message exchanged by gossip, ordering
// and consensus nodes, together with a compact self-describing binary codec.
//
// Two properties matter for the reproduction:
//
//   - EncodedSize must equal len(Marshal(m)) exactly, because the simulated
//     transport accounts bandwidth and store-and-forward transmission time
//     from EncodedSize without serializing (serializing every one of the
//     ~300k block transmissions of an experiment would dominate run time).
//   - Marshal/Unmarshal must round-trip exactly, because the TCP transport
//     ships real bytes.
//
// Both properties are enforced by property-based tests.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fabricgossip/internal/crypto"
)

// NodeID identifies a node (peer or orderer) within a deployment. IDs are
// dense indexes assigned at network construction.
type NodeID uint32

// String formats the id.
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint32(id)) }

// MsgType discriminates message encodings.
type MsgType uint8

// Message type tags. Values start at 1; 0 is reserved as invalid.
const (
	TypeData MsgType = iota + 1
	TypePushDigest
	TypePushRequest
	TypePullHello
	TypePullDigest
	TypePullRequest
	TypePullData
	TypeStateInfo
	TypeStateRequest
	TypeStateResponse
	TypeAlive
	TypeRaftVoteRequest
	TypeRaftVoteResponse
	TypeRaftAppend
	TypeRaftAppendResponse
	TypeRaftForward
	TypeSubmitTx
	TypeDeliverBlock
	TypeMemberEvents
	TypeShuffleRequest
	TypeShuffleResponse

	maxMsgType // sentinel, keep last
)

// NumMsgTypes is one past the highest valid MsgType: arrays of size
// NumMsgTypes indexed directly by MsgType cover every tag (index 0, the
// reserved invalid tag, stays unused). Dense per-type accounting (see
// netmodel.Traffic) relies on it instead of maps.
const NumMsgTypes = int(maxMsgType)

// String returns the message type name.
func (t MsgType) String() string {
	names := [...]string{
		TypeData:               "Data",
		TypePushDigest:         "PushDigest",
		TypePushRequest:        "PushRequest",
		TypePullHello:          "PullHello",
		TypePullDigest:         "PullDigest",
		TypePullRequest:        "PullRequest",
		TypePullData:           "PullData",
		TypeStateInfo:          "StateInfo",
		TypeStateRequest:       "StateRequest",
		TypeStateResponse:      "StateResponse",
		TypeAlive:              "Alive",
		TypeRaftVoteRequest:    "RaftVoteRequest",
		TypeRaftVoteResponse:   "RaftVoteResponse",
		TypeRaftAppend:         "RaftAppend",
		TypeRaftAppendResponse: "RaftAppendResponse",
		TypeRaftForward:        "RaftForward",
		TypeSubmitTx:           "SubmitTx",
		TypeDeliverBlock:       "DeliverBlock",
		TypeMemberEvents:       "MemberEvents",
		TypeShuffleRequest:     "ShuffleRequest",
		TypeShuffleResponse:    "ShuffleResponse",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is the interface all wire messages implement.
type Message interface {
	// Type returns the message's type tag.
	Type() MsgType
	// EncodedSize returns the exact length of Marshal(m) in bytes.
	EncodedSize() int
	// encode writes the message body (everything after the type byte).
	encode(s sink)
}

// Marshal encodes m as a type byte followed by the body.
func Marshal(m Message) []byte { return AppendMarshal(make([]byte, 0, m.EncodedSize()), m) }

// AppendMarshal appends Marshal(m) to dst, so a transport can encode behind
// its own frame header without a second copy.
func AppendMarshal(dst []byte, m Message) []byte {
	b := &bufSink{buf: dst}
	b.byte(byte(m.Type()))
	m.encode(b)
	return b.buf
}

// Decode errors.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrUnknownType = errors.New("wire: unknown message type")
)

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	t := MsgType(data[0])
	d := &decoder{buf: data, off: 1}
	var m Message
	switch t {
	case TypeData:
		m = decodeData(d)
	case TypePushDigest:
		m = decodePushDigest(d)
	case TypePushRequest:
		m = decodePushRequest(d)
	case TypePullHello:
		m = decodePullHello(d)
	case TypePullDigest:
		m = decodePullDigest(d)
	case TypePullRequest:
		m = decodePullRequest(d)
	case TypePullData:
		m = decodePullData(d)
	case TypeStateInfo:
		m = decodeStateInfo(d)
	case TypeStateRequest:
		m = decodeStateRequest(d)
	case TypeStateResponse:
		m = decodeStateResponse(d)
	case TypeAlive:
		m = decodeAlive(d)
	case TypeRaftVoteRequest:
		m = decodeRaftVoteRequest(d)
	case TypeRaftVoteResponse:
		m = decodeRaftVoteResponse(d)
	case TypeRaftAppend:
		m = decodeRaftAppend(d)
	case TypeRaftAppendResponse:
		m = decodeRaftAppendResponse(d)
	case TypeRaftForward:
		m = decodeRaftForward(d)
	case TypeSubmitTx:
		m = decodeSubmitTx(d)
	case TypeDeliverBlock:
		m = decodeDeliverBlock(d)
	case TypeMemberEvents:
		m = decodeMemberEvents(d)
	case TypeShuffleRequest:
		m = decodeShuffleRequest(d)
	case TypeShuffleResponse:
		m = decodeShuffleResponse(d)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(data)-d.off, t)
	}
	return m, nil
}

// sink abstracts "write bytes" vs "count bytes" so EncodedSize shares the
// field-walking logic with Marshal.
type sink interface {
	byte(b byte)
	bytes(b []byte)
	uvarint(v uint64)
}

type bufSink struct{ buf []byte }

func (s *bufSink) byte(b byte)      { s.buf = append(s.buf, b) }
func (s *bufSink) bytes(b []byte)   { s.buf = append(s.buf, b...) }
func (s *bufSink) uvarint(v uint64) { s.buf = binary.AppendUvarint(s.buf, v) }

type countSink struct{ n int }

func (s *countSink) byte(byte)      { s.n++ }
func (s *countSink) bytes(b []byte) { s.n += len(b) }
func (s *countSink) uvarint(v uint64) {
	s.n += uvarintLen(v)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodedSize runs m.encode against a counting sink, plus the type byte.
func encodedSize(m Message) int {
	c := &countSink{n: 1}
	m.encode(c)
	return c.n
}

// Shared field helpers.

func putString(s sink, v string) {
	s.uvarint(uint64(len(v)))
	s.bytes([]byte(v))
}

func putBytes(s sink, v []byte) {
	s.uvarint(uint64(len(v)))
	s.bytes(v)
}

func putDigest(s sink, d crypto.Digest) { s.bytes(d[:]) }

func putUint64s(s sink, vs []uint64) {
	s.uvarint(uint64(len(vs)))
	for _, v := range vs {
		s.uvarint(v)
	}
}

func putBool(s sink, v bool) {
	if v {
		s.byte(1)
	} else {
		s.byte(0)
	}
}

// decoder reads fields, latching the first error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", ErrTruncated, what, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what + " length")
	return string(d.take(int(n), what))
}

func (d *decoder) bytesField(what string) []byte {
	n := d.uvarint(what + " length")
	b := d.take(int(n), what)
	if len(b) == 0 {
		return nil // canonical form: empty and nil encode identically
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *decoder) digest(what string) crypto.Digest {
	var dg crypto.Digest
	b := d.take(len(dg), what)
	if b != nil {
		copy(dg[:], b)
	}
	return dg
}

func (d *decoder) uint64s(what string) []uint64 {
	n := d.uvarint(what + " count")
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) { // cheap sanity bound: each element is >= 1 byte
		d.fail(what)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.uvarint(what)
	}
	return out
}

func (d *decoder) bool(what string) bool { return d.byte() != 0 }
