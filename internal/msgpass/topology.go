// Package msgpass implements §6 of the paper — the universality of
// O(t)-bit registers when a minority of processes may crash — by building
// every stage of the Theorem 1.3 pipeline:
//
//  1. an asynchronous reliable-FIFO message-passing substrate with crash
//     failures, over an arbitrary directed topology;
//  2. the ABD emulation of SWMR shared registers on top of message
//     passing (Attiya-Bar-Noy-Dolev [4]), correct for t < n/2;
//  3. the t-augmented ring of Figure 3, a (t+1)-connected sparse network,
//     with flooding-based forwarding between non-neighbours;
//  4. the alternating-bit protocol (Bartlett-Scantlebury-Wilkinson [9],
//     Lynch [31]) implementing every directed ring link on register
//     fields of 2+1 bits, so that each process's whole communication
//     state fits in one SWMR register of 3(t+1) bits;
//  5. a t-resilient ε-agreement algorithm expressed against an abstract
//     register Store, so the same algorithm runs unchanged on plain
//     shared memory (stage A), ABD over the complete network (A′), ABD
//     over the t-augmented ring (A″), and ABD over alternating-bit ring
//     links with 3(t+1)-bit registers (B).
package msgpass

import (
	"fmt"
	"slices"
)

// Topology is a directed communication graph over n nodes.
type Topology interface {
	N() int
	// Succ returns node i's out-neighbours in ascending order.
	Succ(i int) []int
	// Pred returns node i's in-neighbours in ascending order.
	Pred(i int) []int
}

// Complete is the complete network used by the plain message-passing
// model (§6 phase 1): every ordered pair is a link.
type Complete struct{ Nodes int }

// N implements Topology.
func (c Complete) N() int { return c.Nodes }

// Succ implements Topology.
func (c Complete) Succ(i int) []int { return allBut(c.Nodes, i) }

// Pred implements Topology.
func (c Complete) Pred(i int) []int { return allBut(c.Nodes, i) }

func allBut(n, i int) []int {
	out := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// TAugmentedRing is the sparse network of Figure 3: nodes 0..n-1 form a
// directed cycle and every node has t additional out-neighbours, so node
// i's successors are i+1, ..., i+t+1 (mod n). The graph is
// (t+1)-connected: removing any t nodes leaves it strongly connected,
// which is what lets the t-resilient message-passing model run on it
// (§6 phase 2).
type TAugmentedRing struct {
	Nodes int
	T     int
}

// NewTAugmentedRing validates the parameters (t < n/2 and at least one
// extra node so the ring is simple).
func NewTAugmentedRing(n, t int) (TAugmentedRing, error) {
	if n < 3 {
		return TAugmentedRing{}, fmt.Errorf("msgpass: ring needs n ≥ 3, got %d", n)
	}
	if t < 1 || 2*t >= n {
		return TAugmentedRing{}, fmt.Errorf("msgpass: need 1 ≤ t < n/2, got n=%d t=%d", n, t)
	}
	if t+1 >= n {
		return TAugmentedRing{}, fmt.Errorf("msgpass: degree t+1 = %d too large for n = %d", t+1, n)
	}
	return TAugmentedRing{Nodes: n, T: t}, nil
}

// N implements Topology.
func (r TAugmentedRing) N() int { return r.Nodes }

// Succ implements Topology. The t+1 entries are distinct because
// NewTAugmentedRing requires t+1 < n.
func (r TAugmentedRing) Succ(i int) []int {
	out := make([]int, 0, r.T+1)
	for d := 1; d <= r.T+1; d++ {
		out = append(out, (i+d)%r.Nodes)
	}
	slices.Sort(out)
	return out
}

// Pred implements Topology.
func (r TAugmentedRing) Pred(i int) []int {
	out := make([]int, 0, r.T+1)
	for d := 1; d <= r.T+1; d++ {
		out = append(out, (i-d+r.Nodes)%r.Nodes)
	}
	slices.Sort(out)
	return out
}

// StronglyConnectedWithout reports whether the topology restricted to the
// nodes outside removed is strongly connected. Used to verify
// (t+1)-connectivity by exhausting all subsets of at most t removals.
func StronglyConnectedWithout(topo Topology, removed map[int]bool) bool {
	n := topo.N()
	var nodes []int
	for i := 0; i < n; i++ {
		if !removed[i] {
			nodes = append(nodes, i)
		}
	}
	if len(nodes) == 0 {
		return true
	}
	reach := func(start int, succ func(int) []int) int {
		seen := map[int]bool{start: true}
		queue := []int{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, j := range succ(cur) {
				if !removed[j] && !seen[j] {
					seen[j] = true
					queue = append(queue, j)
				}
			}
		}
		return len(seen)
	}
	fwd := reach(nodes[0], topo.Succ)
	bwd := reach(nodes[0], topo.Pred)
	return fwd == len(nodes) && bwd == len(nodes)
}

// IsKConnected reports whether the topology stays strongly connected
// after removing any set of fewer than k nodes (i.e. vertex connectivity
// ≥ k), by brute force over removal subsets — fine for the small n of
// the experiments.
func IsKConnected(topo Topology, k int) bool {
	n := topo.N()
	var rec func(start, left int, removed map[int]bool) bool
	rec = func(start, left int, removed map[int]bool) bool {
		if !StronglyConnectedWithout(topo, removed) {
			return false
		}
		if left == 0 {
			return true
		}
		for i := start; i < n; i++ {
			removed[i] = true
			ok := rec(i+1, left-1, removed)
			delete(removed, i)
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0, k-1, map[int]bool{})
}
