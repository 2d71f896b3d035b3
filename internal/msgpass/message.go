package msgpass

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind enumerates the message types of the ABD register emulation.
type Kind uint8

// Message kinds.
const (
	KWrite Kind = iota + 1
	KWriteAck
	KRead
	KReadReply
	KWriteBack
	KWriteBackAck
)

// Message is one message of the emulation. Hist carries a register value:
// the history of estimate numerators written so far (the algorithm of
// §6 runs full-information over unbounded registers; boundedness enters
// only through the link encoding of stage B).
type Message struct {
	// UID identifies the message network-wide (origin node and sequence
	// number); flooding over the t-augmented ring dedupes on it.
	UID uint64
	// Src and Dst are the endpoints (Dst is the final destination; the
	// message may traverse intermediate nodes).
	Src, Dst int
	Kind     Kind
	// Reg is the register index (its single writer's id).
	Reg int
	// Ts is the writer's timestamp.
	Ts int64
	// Rid matches replies to the client operation that issued the request.
	Rid int64
	// Hist is the register value (nil when absent).
	Hist []int64
}

// Encode serializes the message into a compact byte string, the payload
// the alternating-bit links transmit bit by bit.
func (m *Message) Encode() []byte {
	buf := make([]byte, 0, 32+8*len(m.Hist))
	buf = binary.AppendUvarint(buf, m.UID)
	buf = binary.AppendUvarint(buf, uint64(m.Src))
	buf = binary.AppendUvarint(buf, uint64(m.Dst))
	buf = append(buf, byte(m.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.Reg))
	buf = binary.AppendVarint(buf, m.Ts)
	buf = binary.AppendVarint(buf, m.Rid)
	buf = binary.AppendUvarint(buf, uint64(len(m.Hist)))
	for _, v := range m.Hist {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// DecodeMessage parses a byte string produced by Encode.
func DecodeMessage(buf []byte) (*Message, error) {
	m := &Message{}
	pos := 0
	uv := func() (uint64, error) {
		v, k := binary.Uvarint(buf[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("msgpass: truncated message")
		}
		pos += k
		return v, nil
	}
	sv := func() (int64, error) {
		v, k := binary.Varint(buf[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("msgpass: truncated message")
		}
		pos += k
		return v, nil
	}
	var err error
	if m.UID, err = uv(); err != nil {
		return nil, err
	}
	v, err := uv()
	if err != nil {
		return nil, err
	}
	m.Src = int(v)
	if v, err = uv(); err != nil {
		return nil, err
	}
	m.Dst = int(v)
	if pos >= len(buf) {
		return nil, fmt.Errorf("msgpass: truncated message")
	}
	m.Kind = Kind(buf[pos])
	pos++
	if v, err = uv(); err != nil {
		return nil, err
	}
	m.Reg = int(v)
	if m.Ts, err = sv(); err != nil {
		return nil, err
	}
	if m.Rid, err = sv(); err != nil {
		return nil, err
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	if count > 0 {
		m.Hist = make([]int64, count)
		for i := range m.Hist {
			if m.Hist[i], err = sv(); err != nil {
				return nil, err
			}
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("msgpass: %d trailing bytes", len(buf)-pos)
	}
	return m, nil
}

// FrameBits converts a payload to the paper's link framing: the data bits
// b_1..b_k (LSB-first per byte) interleaved with separators — a 0 after
// every data bit except the last, which is followed by a 1 marking the
// end of the message (§6: "m is encoded by inserting 0 between each bit
// and adding a 1 at the end"). The links send the same bits one at a
// time through framedBit.
func FrameBits(payload []byte) []uint64 {
	bits := make([]uint64, 0, framedLen(payload))
	for i := 0; i < framedLen(payload); i++ {
		bits = append(bits, framedBit(payload, i))
	}
	return bits
}

// framedLen is the number of framed bits of a payload: two per data bit.
func framedLen(payload []byte) int { return 16 * len(payload) }

// framedBit returns bit i of FrameBits(payload): an even i carries data
// bit i/2, an odd i the separator after it.
func framedBit(payload []byte, i int) uint64 {
	d := i / 2
	if i%2 == 0 {
		return uint64(payload[d/8]>>(d%8)) & 1
	}
	if d == 8*len(payload)-1 {
		return 1
	}
	return 0
}

// BitAssembler reconstructs payloads from a framed bit stream, packing
// the data bits into bytes as they arrive.
type BitAssembler struct {
	buf     []byte // data bits so far, LSB-first per byte
	n       int    // number of data bits in buf
	haveBit bool
	pending uint64
}

// Push consumes one link bit and returns a completed payload when the
// end-of-message separator arrives.
func (a *BitAssembler) Push(bit uint64) ([]byte, error) {
	payload, err := a.push(bit)
	if payload == nil {
		return nil, err
	}
	return bytes.Clone(payload), nil
}

// push is Push without the copy: a completed payload aliases the
// assembler's buffer and is valid only until the next push.
func (a *BitAssembler) push(bit uint64) ([]byte, error) {
	if !a.haveBit {
		a.pending = bit
		a.haveBit = true
		return nil, nil
	}
	a.haveBit = false
	if a.n%8 == 0 {
		a.buf = append(a.buf, 0)
	}
	a.buf[a.n/8] |= byte(a.pending) << (a.n % 8)
	a.n++
	if bit == 0 {
		return nil, nil
	}
	// End of message.
	payload, n := a.buf, a.n
	a.buf, a.n = a.buf[:0], 0
	if n%8 != 0 {
		return nil, fmt.Errorf("msgpass: framed message of %d bits not byte-aligned", n)
	}
	return payload, nil
}
