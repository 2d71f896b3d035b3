package msgpass

import (
	"fmt"
	"slices"

	"repro/internal/memory"
	"repro/internal/sched"
)

// BitNet is stage B of the Theorem 1.3 pipeline: every directed link of
// the (t+1)-connected topology is realized by the alternating-bit
// protocol over register fields — a 2-bit data field (data bit + sequence
// bit) owned by the sender and a 1-bit acknowledgement field owned by the
// receiver. All fields of one process are packed into its single SWMR
// register, so on the t-augmented ring each register has exactly
// 2(t+1) + (t+1) = 3(t+1) bits.
//
// Messages are serialized (Message.Encode) and framed with the paper's
// separator scheme (FrameBits) before transmission; each link bit costs
// one register write by the sender and, at the receiver, one register
// read plus its share of an acknowledgement write.
//
// Compared with the classical alternating-bit protocol the initial
// sequence values are shifted (the first bit travels with sequence 1, and
// registers start at 0) so that the all-zero initial registers do not
// look like a transmission.
type BitNet struct {
	topo  Topology
	mem   *memory.Shared
	nodes []*bitNode

	// Bits counts link-level data bits delivered.
	Bits int
}

var _ LinkLayer = (*BitNet)(nil)

type bitOutLink struct {
	to     int
	slot   int // index in my Succ list: data field at bits [2s, 2s+1]
	ackBit int // bit position of my ack in the receiver's word
	// queue[head:] are the encoded payloads still to transmit; bit is
	// the cursor into FrameBits(queue[head]).
	queue     [][]byte
	head, bit int
	seq       uint64
	await     bool
}

// hasBits reports whether framed bits remain to be sent.
func (ol *bitOutLink) hasBits() bool { return ol.head < len(ol.queue) }

// nextBit returns the next framed bit and advances the cursor.
func (ol *bitOutLink) nextBit() uint64 {
	payload := ol.queue[ol.head]
	b := framedBit(payload, ol.bit)
	ol.bit++
	if ol.bit == framedLen(payload) {
		ol.queue[ol.head] = nil
		ol.head, ol.bit = ol.head+1, 0
		if ol.head == len(ol.queue) {
			ol.queue, ol.head = ol.queue[:0], 0
		}
	}
	return b
}

type bitInLink struct {
	from     int
	dataSlot int // index in from's Succ list
	ackBit   int // bit position of my ack field in my word
	lastSeq  uint64
	asm      BitAssembler
}

type bitNode struct {
	word  uint64
	outs  []*bitOutLink
	ins   []*bitInLink
	inbox []*Message
	// ready is the node's RecvAny step guard, built once.
	ready func() bool
}

// NewBitNet builds the alternating-bit substrate over the topology. The
// register width is 2·outdeg + indeg bits (3(t+1) on the t-augmented
// ring).
func NewBitNet(topo Topology) *BitNet {
	n := topo.N()
	succ, pred := make([][]int, n), make([][]int, n)
	width := 0
	for i := 0; i < n; i++ {
		succ[i], pred[i] = topo.Succ(i), topo.Pred(i)
		if w := 2*len(succ[i]) + len(pred[i]); w > width {
			width = w
		}
	}
	b := &BitNet{
		topo:  topo,
		mem:   memory.New(n, width),
		nodes: make([]*bitNode, n),
	}
	for i := 0; i < n; i++ {
		nd := &bitNode{ready: func() bool { return b.progress(i) }}
		for s, j := range succ[i] {
			// My ack bit in j's word: after j's 2·outdeg data bits, at
			// the index of i among j's predecessors.
			ackBit := 2*len(succ[j]) + slices.Index(pred[j], i)
			nd.outs = append(nd.outs, &bitOutLink{to: j, slot: s, ackBit: ackBit})
		}
		for k, j := range pred[i] {
			nd.ins = append(nd.ins, &bitInLink{
				from:     j,
				dataSlot: slices.Index(succ[j], i),
				ackBit:   2*len(succ[i]) + k,
			})
		}
		b.nodes[i] = nd
	}
	return b
}

// Topo implements LinkLayer.
func (b *BitNet) Topo() Topology { return b.topo }

// RegisterBits returns the width of each process's register.
func (b *BitNet) RegisterBits() int { return b.mem.Width() }

// Memory exposes the underlying bounded shared memory (for assertions).
func (b *BitNet) Memory() *memory.Shared { return b.mem }

// Send implements LinkLayer: it queues the encoded message on the link,
// to be framed bit by bit (FrameBits) as it is transmitted. The register
// operations that transmit the bits happen during RecvAny pumping and
// are charged there.
func (b *BitNet) Send(p *sched.Proc, to int, m *Message) error {
	nd := b.nodes[p.ID]
	for _, ol := range nd.outs {
		if ol.to == to {
			ol.queue = append(ol.queue, m.Encode())
			return nil
		}
	}
	return fmt.Errorf("msgpass: no link %d→%d", p.ID, to)
}

func dataField(word uint64, slot int) (bit, seq uint64) {
	return (word >> (2*slot + 1)) & 1, (word >> (2 * slot)) & 1
}

// progress reports whether node me can make any pump progress.
func (b *BitNet) progress(me int) bool {
	nd := b.nodes[me]
	if len(nd.inbox) > 0 {
		return true
	}
	for _, ol := range nd.outs {
		if ol.await {
			w, _ := b.mem.Peek(ol.to).(uint64)
			if (w>>ol.ackBit)&1 == ol.seq {
				return true
			}
		} else if ol.hasBits() {
			return true
		}
	}
	for _, il := range nd.ins {
		w, _ := b.mem.Peek(il.from).(uint64)
		if _, s := dataField(w, il.dataSlot); s != il.lastSeq {
			return true
		}
	}
	return false
}

// pump performs every currently possible link action for node p.ID:
// confirm acknowledgements, transmit next bits, consume incoming bits,
// and acknowledge them — ending with at most one write of the node's own
// register (all its fields are updated in a single register operation).
func (b *BitNet) pump(p *sched.Proc) error {
	me := p.ID
	nd := b.nodes[me]
	pm := memory.Bind(p, b.mem)

	newWord := nd.word
	dirty := false

	for _, ol := range nd.outs {
		if ol.await {
			// Check the receiver's acknowledgement field (paid read),
			// but only when it can have flipped.
			w, _ := b.mem.Peek(ol.to).(uint64)
			if (w>>ol.ackBit)&1 != ol.seq {
				continue
			}
			word, ok := pm.Read(ol.to).(uint64)
			if !ok {
				return fmt.Errorf("msgpass: register %d holds non-word", ol.to)
			}
			if (word>>ol.ackBit)&1 == ol.seq {
				ol.await = false
			}
		}
		if !ol.await && ol.hasBits() {
			bit := ol.nextBit()
			ol.seq = 1 - ol.seq
			field := ol.seq | (bit << 1)
			newWord = (newWord &^ (3 << (2 * ol.slot))) | (field << (2 * ol.slot))
			ol.await = true
			dirty = true
		}
	}

	for _, il := range nd.ins {
		w, _ := b.mem.Peek(il.from).(uint64)
		if _, s := dataField(w, il.dataSlot); s == il.lastSeq {
			continue
		}
		word, ok := pm.Read(il.from).(uint64)
		if !ok {
			return fmt.Errorf("msgpass: register %d holds non-word", il.from)
		}
		bit, s := dataField(word, il.dataSlot)
		if s == il.lastSeq {
			continue
		}
		il.lastSeq = s
		newWord = (newWord &^ (1 << il.ackBit)) | (s << il.ackBit)
		dirty = true
		b.Bits++
		payload, err := il.asm.push(bit)
		if err != nil {
			return err
		}
		if payload != nil {
			m, err := DecodeMessage(payload)
			if err != nil {
				return err
			}
			nd.inbox = append(nd.inbox, m)
		}
	}

	if dirty {
		nd.word = newWord
		if err := pm.Write(newWord); err != nil {
			return err
		}
	}
	return nil
}

// RecvAny implements LinkLayer: it pumps the node's links until a full
// message has been assembled.
func (b *BitNet) RecvAny(p *sched.Proc) (*Message, error) {
	nd := b.nodes[p.ID]
	for {
		if len(nd.inbox) > 0 {
			m := nd.inbox[0]
			nd.inbox = nd.inbox[1:]
			return m, nil
		}
		p.StepWhen(nd.ready)
		if err := b.pump(p); err != nil {
			return nil, err
		}
	}
}
