package msgpass

import (
	"fmt"

	"repro/internal/sched"
)

// Node is the per-process protocol stack above a LinkLayer: flooding
// router over the (t+1)-connected topology, ABD register-emulation
// server, and ABD client operations. One Node lives inside one scheduled
// process.
type Node struct {
	P  *sched.Proc
	LL LinkLayer
	// T is the resilience bound; quorums have size n-T.
	T int
	// WriteBack enables the read write-back phase of ABD (full
	// atomicity). The §6 pipeline only needs regular registers for the
	// full-information algorithm, so this is an ablation knob.
	WriteBack bool

	succ   []int // LL.Topo().Succ(P.ID)
	seen   map[uint64]bool
	seq    uint64
	copies []regCopy
	ts     int64
	rid    int64
}

type regCopy struct {
	Ts   int64
	Hist []int64
}

// NewNode builds the stack for process p.
func NewNode(p *sched.Proc, ll LinkLayer, t int, writeBack bool) *Node {
	return &Node{
		P:         p,
		LL:        ll,
		T:         t,
		WriteBack: writeBack,
		succ:      ll.Topo().Succ(p.ID),
		seen:      make(map[uint64]bool),
		copies:    make([]regCopy, ll.Topo().N()),
	}
}

func (nd *Node) n() int { return nd.LL.Topo().N() }

// quorum returns the reply threshold n-t (the sender itself included).
func (nd *Node) quorum() int { return nd.n() - nd.T }

func (nd *Node) newUID() uint64 {
	nd.seq++
	return uint64(nd.P.ID)<<32 | nd.seq
}

// forward sends m towards m.Dst: directly when the link exists, and by
// flooding all successors otherwise (§6 phase 2); UID-deduplication at
// every node keeps the flood finite.
func (nd *Node) forward(m *Message) error {
	if contains(nd.succ, m.Dst) {
		return nd.LL.Send(nd.P, m.Dst, m)
	}
	for _, j := range nd.succ {
		if err := nd.LL.Send(nd.P, j, m); err != nil {
			return err
		}
	}
	return nil
}

// sendTo originates a fresh message to dst.
func (nd *Node) sendTo(dst int, m Message) error {
	m.UID = nd.newUID()
	m.Src = nd.P.ID
	m.Dst = dst
	nd.seen[m.UID] = true
	return nd.forward(&m)
}

// broadcast originates m to every other node.
func (nd *Node) broadcast(m Message) error {
	for j := 0; j < nd.n(); j++ {
		if j == nd.P.ID {
			continue
		}
		if err := nd.sendTo(j, m); err != nil {
			return err
		}
	}
	return nil
}

// recvApp receives, dedupes, forwards transit messages, serves register
// requests, and returns the next reply addressed to this node.
func (nd *Node) recvApp() (*Message, error) {
	for {
		m, err := nd.LL.RecvAny(nd.P)
		if err != nil {
			return nil, err
		}
		if nd.seen[m.UID] {
			continue
		}
		nd.seen[m.UID] = true
		if m.Dst != nd.P.ID {
			if err := nd.forward(m); err != nil {
				return nil, err
			}
			continue
		}
		switch m.Kind {
		case KWrite, KWriteBack:
			if m.Ts > nd.copies[m.Reg].Ts {
				nd.copies[m.Reg] = regCopy{Ts: m.Ts, Hist: m.Hist}
			}
			ack := KWriteAck
			if m.Kind == KWriteBack {
				ack = KWriteBackAck
			}
			if err := nd.sendTo(m.Src, Message{Kind: ack, Reg: m.Reg, Rid: m.Rid}); err != nil {
				return nil, err
			}
		case KRead:
			c := nd.copies[m.Reg]
			if err := nd.sendTo(m.Src, Message{
				Kind: KReadReply, Reg: m.Reg, Rid: m.Rid, Ts: c.Ts, Hist: c.Hist,
			}); err != nil {
				return nil, err
			}
		default:
			return m, nil
		}
	}
}

// awaitReplies consumes replies until count matching (kind, rid) arrive,
// returning them. Server requests arriving meanwhile are handled inside
// recvApp; stale replies are dropped.
func (nd *Node) awaitReplies(kind Kind, rid int64, count int) ([]*Message, error) {
	var got []*Message
	for len(got) < count {
		m, err := nd.recvApp()
		if err != nil {
			return nil, err
		}
		if m.Kind == kind && m.Rid == rid {
			got = append(got, m)
		}
	}
	return got, nil
}

// ABDWrite performs the ABD write of value hist into this node's own
// register: timestamp it, broadcast, await n-t-1 remote acknowledgements
// (plus itself).
func (nd *Node) ABDWrite(hist []int64) error {
	nd.ts++
	nd.rid++
	cp := append([]int64(nil), hist...)
	nd.copies[nd.P.ID] = regCopy{Ts: nd.ts, Hist: cp}
	if err := nd.broadcast(Message{Kind: KWrite, Reg: nd.P.ID, Ts: nd.ts, Rid: nd.rid, Hist: cp}); err != nil {
		return err
	}
	_, err := nd.awaitReplies(KWriteAck, nd.rid, nd.quorum()-1)
	return err
}

// ABDRead performs the ABD read of register reg: query all, take the
// highest-timestamped of n-t replies (itself included), optionally
// write it back, and return it.
func (nd *Node) ABDRead(reg int) ([]int64, error) {
	nd.rid++
	if err := nd.broadcast(Message{Kind: KRead, Reg: reg, Rid: nd.rid}); err != nil {
		return nil, err
	}
	replies, err := nd.awaitReplies(KReadReply, nd.rid, nd.quorum()-1)
	if err != nil {
		return nil, err
	}
	best := nd.copies[reg]
	for _, r := range replies {
		if r.Ts > best.Ts {
			best = regCopy{Ts: r.Ts, Hist: r.Hist}
		}
	}
	if best.Ts > nd.copies[reg].Ts {
		nd.copies[reg] = best
	}
	if nd.WriteBack && best.Ts > 0 {
		nd.rid++
		if err := nd.broadcast(Message{Kind: KWriteBack, Reg: reg, Ts: best.Ts, Rid: nd.rid, Hist: best.Hist}); err != nil {
			return nil, err
		}
		if _, err := nd.awaitReplies(KWriteBackAck, nd.rid, nd.quorum()-1); err != nil {
			return nil, err
		}
	}
	return best.Hist, nil
}

// ServeForever keeps the node serving register requests after its own
// computation has decided. The execution reaches quiescence (every node
// parked on an unsatisfiable receive) when all correct nodes are done —
// the runner reports it as Result.Deadlocked, which the pipeline treats
// as normal termination.
func (nd *Node) ServeForever() error {
	for {
		if _, err := nd.recvApp(); err != nil {
			return err
		}
	}
}

// Errf wraps an error with the node id.
func (nd *Node) Errf(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("node %d: %w", nd.P.ID, err)
}
