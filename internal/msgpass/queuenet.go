package msgpass

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/sched"
)

// LinkLayer is a point-to-point transport over a topology. Sends are only
// allowed along direct links; the routing above it (Node) handles
// multi-hop delivery. Implementations charge scheduler steps for their
// shared-state operations, so asynchrony and fairness come from the same
// adversary that drives everything else.
type LinkLayer interface {
	Topo() Topology
	// Send transmits m on the direct link p.ID → to (to ∈ Succ(p.ID)).
	Send(p *sched.Proc, to int, m *Message) error
	// RecvAny blocks until a message is available on any in-link of p.ID
	// and returns it.
	RecvAny(p *sched.Proc) (*Message, error)
}

// QueueNet is the plain asynchronous message-passing substrate: one
// unbounded FIFO queue per directed link, reliable, with delivery order
// across links chosen by a seeded RNG (the delivery adversary). Each send
// and each receive is one scheduler step.
type QueueNet struct {
	topo Topology
	succ [][]int
	pred [][]int
	// in[j][k] is the queue of the link pred[j][k] → j.
	in [][][]*Message
	// ready[j] is node j's RecvAny step guard, built once.
	ready []func() bool
	rng   *rand.Rand

	// Sent and Delivered count link-level message events.
	Sent, Delivered int
}

var _ LinkLayer = (*QueueNet)(nil)

// NewQueueNet builds the substrate over the topology; seed drives the
// cross-link delivery choice.
func NewQueueNet(topo Topology, seed int64) *QueueNet {
	n := topo.N()
	q := &QueueNet{
		topo:  topo,
		succ:  make([][]int, n),
		pred:  make([][]int, n),
		in:    make([][][]*Message, n),
		ready: make([]func() bool, n),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for j := 0; j < n; j++ {
		q.succ[j], q.pred[j] = topo.Succ(j), topo.Pred(j)
		q.in[j] = make([][]*Message, len(q.pred[j]))
		q.ready[j] = func() bool { return q.nonEmptyIn(j) > 0 }
	}
	return q
}

// Topo implements LinkLayer.
func (q *QueueNet) Topo() Topology { return q.topo }

// Send implements LinkLayer.
func (q *QueueNet) Send(p *sched.Proc, to int, m *Message) error {
	if !contains(q.succ[p.ID], to) {
		return fmt.Errorf("msgpass: no link %d→%d", p.ID, to)
	}
	p.Step()
	k := slices.Index(q.pred[to], p.ID)
	q.in[to][k] = append(q.in[to][k], m)
	q.Sent++
	return nil
}

// RecvAny implements LinkLayer: it blocks (disabled in the scheduler's
// enabled set) until some in-link queue is non-empty, then dequeues from
// a queue picked by the delivery adversary: uniformly among the
// non-empty ones, in Pred order.
func (q *QueueNet) RecvAny(p *sched.Proc) (*Message, error) {
	me := p.ID
	p.StepWhen(q.ready[me])
	if ready := q.nonEmptyIn(me); ready > 0 {
		pick := q.rng.Intn(ready)
		for k, queue := range q.in[me] {
			if len(queue) == 0 {
				continue
			}
			if pick > 0 {
				pick--
				continue
			}
			q.in[me][k] = queue[1:]
			q.Delivered++
			return queue[0], nil
		}
	}
	return nil, fmt.Errorf("msgpass: RecvAny granted with no message")
}

// nonEmptyIn counts me's non-empty in-link queues.
func (q *QueueNet) nonEmptyIn(me int) int {
	n := 0
	for _, queue := range q.in[me] {
		if len(queue) > 0 {
			n++
		}
	}
	return n
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
