// Package impossibility makes the Theorem 1.1 lower bound (§3.1, §4)
// constructive: when more than half of the processes may crash, bounded
// registers cap the achievable ε of approximate agreement.
//
// Impossibility cannot be "run", but the proof's combinatorial core can:
//
//   - the execution graph of a 2-process protocol restricted to inputs
//     (0,1) connects the two solo vertices by a path along which outputs
//     move by at most ε (else the processes would solve consensus,
//     contradicting Lemma 2.1);
//   - a register of s bits takes at most 2^s values, so across the path's
//     Ω(1/ε) output classes, two executions with far-apart outputs leave
//     identical register contents (pigeonhole on 2^{2s} memory states);
//   - a third process arriving after those executions reads only the
//     registers, cannot tell the two apart, and any decision it makes is
//     ≥ 2ε away from some already-decided output — violating
//     ε-agreement.
//
// The package exhibits all three steps on Algorithm 1 (whose coordination
// registers have s = 1 bit) and produces the counting table of
// Proposition 4.1 for general widths.
package impossibility

import (
	"fmt"
	"sort"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// Vertex is a final protocol state in the execution graph: process Pid
// decided output Num (over the protocol's common denominator).
type Vertex struct {
	Pid int
	Num int
}

// ExecutionGraph is the graph G of §3.1 for Algorithm 1 with inputs
// (0,1): vertices are (process, decision) pairs, edges join decisions
// that co-occur in some execution.
type ExecutionGraph struct {
	// K is the Algorithm 1 parameter; Den = 2k+1.
	K, Den int
	// Adj is the adjacency structure.
	Adj map[Vertex]map[Vertex]bool
	// Executions counts the interleavings enumerated.
	Executions int
}

// outcome is what one complete execution of Algorithm 1 with inputs
// (0,1) leaves for the analyses here, once both processes decided: the
// final coordination register contents and the two output numerators.
type outcome struct {
	mem MemoryState
	out [2]int
}

// outcomeSet is a set of outcomes: the contribution of a subtree of the
// schedule tree.
type outcomeSet map[outcome]struct{}

// unionOutcomes is the pure sched.Options.Merge over outcome sets: a
// fresh union, both arguments (live memo entries) untouched.
func unionOutcomes(a, b any) any {
	x, y := a.(outcomeSet), b.(outcomeSet)
	out := make(outcomeSet, len(x)+len(y))
	for o := range x {
		out[o] = struct{}{}
	}
	for o := range y {
		out[o] = struct{}{}
	}
	return out
}

// Analysis is the set of outcomes of every interleaving of Algorithm 1
// with k rounds and inputs (0,1): everything the execution graph, the
// register-content collisions and the achievable output sets are
// derived from.
type Analysis struct {
	// K is the Algorithm 1 parameter; Den = 2k+1.
	K, Den int
	// Stats counts the exploration that collected the outcomes.
	Stats    sched.Stats
	outcomes outcomeSet
}

// Analyze explores every interleaving of Algorithm 1 with k rounds and
// inputs (0,1) through the canonical-state memo and collects the
// outcomes of the executions in which both processes decided. Each leaf
// contributes a fresh one-outcome set and subtrees merge by set union,
// so the memo collects the same set as AnalyzeExhaustive. The outcome
// is ordered by pid, which the memory's relabelling-reduced canonical
// key allows here only because the inputs differ and each process
// writes its input first: two states that differ by swapping the
// processes never share a key.
func Analyze(k int) (*Analysis, error) {
	return analyze(k, sched.Options{Memo: true, Merge: unionOutcomes})
}

// AnalyzeExhaustive is Analyze without the memo: every interleaving is
// replayed one by one. It is the reference Analyze is checked against.
func AnalyzeExhaustive(k int) (*Analysis, error) {
	return analyze(k, sched.Options{Merge: unionOutcomes})
}

func analyze(k int, opts sched.Options) (*Analysis, error) {
	all, stats, err := agreement.ExploreAlg1(k, [2]uint64{0, 1}, opts, func(ar *agreement.Alg1Run) (any, error) {
		if !ar.Decided[0] || !ar.Decided[1] {
			return nil, nil
		}
		o := outcome{mem: ar.FinalRegisters(), out: [2]int{ar.Outs[0].Num, ar.Outs[1].Num}}
		return outcomeSet{o: {}}, nil
	})
	if err != nil {
		return nil, err
	}
	a := &Analysis{K: k, Den: agreement.Alg1Den(k), Stats: stats, outcomes: outcomeSet{}}
	if all != nil {
		a.outcomes = all.(outcomeSet)
	}
	return a, nil
}

// Graph builds the execution graph: its vertices and edges are the
// outcomes' decision pairs.
func (a *Analysis) Graph() *ExecutionGraph {
	g := &ExecutionGraph{K: a.K, Den: a.Den, Adj: map[Vertex]map[Vertex]bool{}, Executions: a.Stats.Executions}
	for o := range a.outcomes {
		u := Vertex{Pid: 0, Num: o.out[0]}
		v := Vertex{Pid: 1, Num: o.out[1]}
		if g.Adj[u] == nil {
			g.Adj[u] = map[Vertex]bool{}
		}
		if g.Adj[v] == nil {
			g.Adj[v] = map[Vertex]bool{}
		}
		g.Adj[u][v] = true
		g.Adj[v][u] = true
	}
	return g
}

// SoloVertices returns v1 = (p0 solo, 0) and v2 = (p1 solo, 1): the
// endpoints the connectivity argument needs (a solo process decides its
// own input, Lemma 5.6).
func (g *ExecutionGraph) SoloVertices() (Vertex, Vertex) {
	return Vertex{Pid: 0, Num: 0}, Vertex{Pid: 1, Num: g.Den}
}

// Path returns a path from v1 to v2 in the graph, or nil if disconnected
// (which would let the two processes solve consensus — impossible by
// Lemma 2.1).
func (g *ExecutionGraph) Path() []Vertex {
	v1, v2 := g.SoloVertices()
	prev := map[Vertex]Vertex{v1: v1}
	queue := []Vertex{v1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == v2 {
			var path []Vertex
			for at := v2; ; at = prev[at] {
				path = append([]Vertex{at}, path...)
				if prev[at] == at {
					return path
				}
			}
		}
		var nbs []Vertex
		for nb := range g.Adj[cur] {
			nbs = append(nbs, nb)
		}
		sort.Slice(nbs, func(a, b int) bool {
			if nbs[a].Pid != nbs[b].Pid {
				return nbs[a].Pid < nbs[b].Pid
			}
			return nbs[a].Num < nbs[b].Num
		})
		for _, nb := range nbs {
			if _, ok := prev[nb]; !ok {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return nil
}

// MemoryState is the observable content of the coordination registers
// (R1, R2) after both processes decided. The input registers hold (0,1)
// in every enumerated execution, so they add no information.
type MemoryState [2]uint64

// Collision groups the output pairs of executions that end in the same
// memory state: everything a late third process can distinguish.
type Collision struct {
	Mem MemoryState
	// Pairs lists the distinct (p0, p1) output-numerator pairs observed.
	Pairs [][2]int
	// MinNum and MaxNum bound the outputs across all pairs.
	MinNum, MaxNum int
}

// Gap is MaxNum - MinNum: twice the error a third process is forced to
// make (in units of 1/(2k+1)), since its decision is fixed per memory
// state while outputs Gap apart are both possible.
func (c Collision) Gap() int { return c.MaxNum - c.MinNum }

// Collisions groups the outcomes by final memory state, sorted by
// descending gap.
func (a *Analysis) Collisions() []Collision {
	buckets := map[MemoryState]*Collision{}
	for o := range a.outcomes {
		c := buckets[o.mem]
		if c == nil {
			c = &Collision{Mem: o.mem, MinNum: 1 << 30, MaxNum: -1}
			buckets[o.mem] = c
		}
		c.Pairs = append(c.Pairs, o.out)
		for _, v := range o.out {
			c.MinNum = min(c.MinNum, v)
			c.MaxNum = max(c.MaxNum, v)
		}
	}
	out := make([]Collision, 0, len(buckets))
	for _, c := range buckets {
		sort.Slice(c.Pairs, func(a, b int) bool {
			if c.Pairs[a][0] != c.Pairs[b][0] {
				return c.Pairs[a][0] < c.Pairs[b][0]
			}
			return c.Pairs[a][1] < c.Pairs[b][1]
		})
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Gap() != out[b].Gap() {
			return out[a].Gap() > out[b].Gap()
		}
		return out[a].Mem[0]*2+out[a].Mem[1] < out[b].Mem[0]*2+out[b].Mem[1]
	})
	return out
}

// WorstCollision returns the memory state with the largest output gap.
func (a *Analysis) WorstCollision() (Collision, error) {
	cs := a.Collisions()
	if len(cs) == 0 {
		return Collision{}, fmt.Errorf("impossibility: no executions enumerated")
	}
	return cs[0], nil
}

// AchievableOutputSets verifies Claim 4.1 constructively for Algorithm 1
// with inputs (0,1): for every m ∈ {0..2k}, some execution's output set
// is exactly the adjacent pair {m, m+1} (over denominator 2k+1). This is
// the family of mutually exclusive output classes the pigeonhole
// argument counts. Index m of the result reports the pair {m, m+1}.
func (a *Analysis) AchievableOutputSets() []bool {
	achieved := make([]bool, a.Den) // pair {m, m+1} for m = 0..den-1
	for o := range a.outcomes {
		lo, hi := min(o.out[0], o.out[1]), max(o.out[0], o.out[1])
		if hi == lo+1 {
			achieved[lo] = true
		}
	}
	return achieved
}

// CountingRow is one row of the Proposition 4.1 pigeonhole table.
type CountingRow struct {
	// Bits is the register width f(n).
	Bits int
	// N and T are the system parameters (t > n/2 required for the bound).
	N, T int
	// States is the number of distinguishable memory contents of the
	// n-t+1 registers the early processes write: 2^{Bits·(n-t+1)}.
	States uint64
	// KThreshold is the paper's k = 2·States + 1: with ε = 1/k, the
	// k+1 mutually exclusive output classes outnumber the memory states
	// and a collision is forced.
	KThreshold uint64
}

// EpsFloorDen returns the denominator of the forced ε floor: ε-agreement
// with ε < 1/KThreshold is unsolvable with Bits-bit registers.
func (r CountingRow) EpsFloorDen() uint64 { return r.KThreshold }

// CountingTable builds the pigeonhole table for widths 1..maxBits.
func CountingTable(n, t, maxBits int) ([]CountingRow, error) {
	if 2*t <= n {
		return nil, fmt.Errorf("impossibility: need t > n/2, got n=%d t=%d", n, t)
	}
	rows := make([]CountingRow, 0, maxBits)
	for s := 1; s <= maxBits; s++ {
		writers := n - t + 1
		states := uint64(1) << (s * writers)
		rows = append(rows, CountingRow{
			Bits: s, N: n, T: t,
			States:     states,
			KThreshold: 2*states + 1,
		})
	}
	return rows, nil
}
