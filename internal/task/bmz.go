package task

import (
	"fmt"
	"sort"
)

// CheckSolvable checks the Biran-Moran-Zaks conditions of Lemma 5.7 for a
// candidate output subset O′:
//
//   - Connectivity: for every input X, the graph G(Δ(X) ∩ O′) is connected
//     (and non-empty);
//   - Covering: for every partial input X^i there is a partial output Y^i
//     such that every extension X of X^i has an extension of Y^i in
//     Δ(X) ∩ O′.
//
// A nil error means the task is 1-resilient (= 2-process wait-free)
// solvable using O′.
func (t *Task) CheckSolvable(oprime []Pair) error {
	inO := make(map[Pair]bool, len(oprime))
	for _, y := range oprime {
		inO[y] = true
	}

	// Connectivity.
	for _, x := range t.Inputs {
		legal := t.legalIn(x, inO)
		if len(legal) == 0 {
			return fmt.Errorf("connectivity: Δ(%v) ∩ O′ is empty", x)
		}
		if !connected(legal) {
			return fmt.Errorf("connectivity: G(Δ(%v) ∩ O′) is disconnected", x)
		}
	}

	// Covering.
	for i := 0; i < 2; i++ {
		for _, xp := range t.PartialInputs(i) {
			if _, ok := t.coverWitness(xp, i, inO); !ok {
				return fmt.Errorf("covering: no partial output covers partial input %v (missing %d)", xp, i)
			}
		}
	}
	return nil
}

// legalIn returns Δ(x) ∩ O′, sorted.
func (t *Task) legalIn(x Pair, inO map[Pair]bool) []Pair {
	var out []Pair
	for _, y := range t.Delta[x] {
		if inO[y] {
			out = append(out, y)
		}
	}
	sortPairs(out)
	return out
}

// coverWitness finds a value w for component j = 1-i such that every
// extension X of partial input xp has some Y ∈ Δ(X) ∩ O′ with Y[j] == w.
func (t *Task) coverWitness(xp Pair, i int, inO map[Pair]bool) (int, bool) {
	j := 1 - i
	exts := t.Extensions(xp)
	legal := make([][]Pair, len(exts))
	for e, x := range exts {
		legal[e] = t.legalIn(x, inO)
	}
	// Candidate witnesses: component-j values available for every extension.
	var candidates []int
	seen := map[int]bool{}
	for _, y := range legal[0] {
		if !seen[y[j]] {
			seen[y[j]] = true
			candidates = append(candidates, y[j])
		}
	}
	sort.Ints(candidates)
	for _, w := range candidates {
		ok := true
		for _, ys := range legal {
			found := false
			for _, y := range ys {
				if y[j] == w {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return w, true
		}
	}
	return 0, false
}

// connected reports whether the graph on nodes (edges: differ in exactly
// one component) is connected.
func connected(nodes []Pair) bool {
	if len(nodes) == 0 {
		return false
	}
	idx := make(map[Pair]int, len(nodes))
	for i, p := range nodes {
		idx[p] = i
	}
	seen := make([]bool, len(nodes))
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next, p := range nodes {
			if !seen[next] && AdjacentOrEqual(nodes[cur], p) {
				seen[next] = true
				count++
				queue = append(queue, next)
			}
		}
	}
	return count == len(nodes)
}

// bfsPath returns a path (sequence of nodes, consecutive ones adjacent or
// equal) from a to b within nodes, or nil if unreachable.
func bfsPath(nodes []Pair, a, b Pair) []Pair {
	prev := map[Pair]Pair{a: a}
	queue := []Pair{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			var path []Pair
			for at := b; ; at = prev[at] {
				path = append([]Pair{at}, path...)
				if at == prev[at] {
					return path
				}
			}
		}
		for _, next := range nodes {
			if _, ok := prev[next]; !ok && AdjacentOrEqual(cur, next) {
				prev[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// FindSolvableSubset searches for an output subset O′ satisfying the BMZ
// conditions, trying O = O′ first and then all non-empty subsets (the
// tasks in this repository have small output sets). It returns the subset
// and true, or nil and false if the task is not 1-resilient solvable
// (e.g. consensus).
func (t *Task) FindSolvableSubset() ([]Pair, bool) {
	if err := t.CheckSolvable(t.Outputs); err == nil {
		return t.Outputs, true
	}
	n := len(t.Outputs)
	if n > 16 {
		return nil, false // exhaustive subset search too large; O failed
	}
	for mask := 1; mask < 1<<n; mask++ {
		var sub []Pair
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				sub = append(sub, t.Outputs[b])
			}
		}
		if err := t.CheckSolvable(sub); err == nil {
			return sub, true
		}
	}
	return nil, false
}

// Plan is the pre-processing both processes of Algorithm 2 share: the
// common map δ from inputs and partial inputs to outputs in O′, and for
// every (input X, missing index i) a path of L+1 outputs
// (Y_0, ..., Y_L) with Y_0 = δ(X), Y_L = δ(X^i), such that
// Y_0..Y_{L-1} ∈ Δ(X) ∩ O′ and Y_{L-1}, Y_L differ only in component i.
// All paths share the same even length L ≥ 4 (so that k = L/2 is a valid
// Algorithm 1 parameter).
type Plan struct {
	Task   *Task
	Oprime []Pair
	// L is the common path length; paths have L+1 nodes.
	L int
	// DeltaFull maps each input X to δ(X) = Y_0.
	DeltaFull map[Pair]Pair
	// DeltaPartial maps each partial input X^i to δ(X^i) = Y_L.
	DeltaPartial map[Pair]Pair
	// Paths maps (X, i) to the padded path.
	Paths map[pathKey][]Pair
}

type pathKey struct {
	X       Pair
	Missing int
}

// BuildPlan constructs the plan of §5.2.2 for a solvable output subset.
// It fails if the BMZ conditions do not hold for oprime.
func (t *Task) BuildPlan(oprime []Pair) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := t.CheckSolvable(oprime); err != nil {
		return nil, fmt.Errorf("task %s not solvable with given O′: %w", t.Name, err)
	}
	inO := make(map[Pair]bool, len(oprime))
	for _, y := range oprime {
		inO[y] = true
	}

	plan := &Plan{
		Task:         t,
		Oprime:       oprime,
		DeltaFull:    make(map[Pair]Pair),
		DeltaPartial: make(map[Pair]Pair),
		Paths:        make(map[pathKey][]Pair),
	}

	// δ on full inputs: deterministic first element of Δ(X) ∩ O′.
	for _, x := range t.Inputs {
		plan.DeltaFull[x] = t.legalIn(x, inO)[0]
	}

	// δ on partial inputs: an O′ extension of the covering witness.
	witness := map[Pair]int{} // partial input -> witness value w (component j)
	for i := 0; i < 2; i++ {
		j := 1 - i
		for _, xp := range t.PartialInputs(i) {
			w, ok := t.coverWitness(xp, i, inO)
			if !ok {
				return nil, fmt.Errorf("covering witness vanished for %v", xp)
			}
			witness[xp] = w
			found := false
			for _, y := range oprime {
				if y[j] == w {
					plan.DeltaPartial[xp] = y
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("no O′ extension of witness %d for %v", w, xp)
			}
		}
	}

	// Raw paths.
	raw := map[pathKey][]Pair{}
	maxLen := 0 // number of edges
	for _, x := range t.Inputs {
		for i := 0; i < 2; i++ {
			j := 1 - i
			xp := x.Partial(i)
			w := witness[xp]
			legal := t.legalIn(x, inO)
			// Y_{L-1}: a legal output for X extending the witness.
			var yl1 Pair
			found := false
			for _, y := range legal {
				if y[j] == w {
					yl1 = y
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("no Y_{L-1} for input %v missing %d", x, i)
			}
			body := bfsPath(legal, plan.DeltaFull[x], yl1)
			if body == nil {
				return nil, fmt.Errorf("no path from %v to %v in Δ(%v) ∩ O′", plan.DeltaFull[x], yl1, x)
			}
			path := append(body, plan.DeltaPartial[xp])
			raw[pathKey{x, i}] = path
			if len(path)-1 > maxLen {
				maxLen = len(path) - 1
			}
		}
	}

	// Common even length L ≥ 4. Pad by repeating Y_0 at the front: the
	// duplicate is adjacent-or-equal to itself and stays in Δ(X) ∩ O′.
	l := maxLen
	if l < 4 {
		l = 4
	}
	if l%2 == 1 {
		l++
	}
	plan.L = l
	for key, path := range raw {
		pad := l + 1 - len(path)
		padded := make([]Pair, 0, l+1)
		for p := 0; p < pad; p++ {
			padded = append(padded, path[0])
		}
		padded = append(padded, path...)
		plan.Paths[key] = padded
	}
	return plan, nil
}

// Path returns the padded path for (x, missing). The boolean reports
// whether the plan has it (it always does for valid inputs).
func (pl *Plan) Path(x Pair, missing int) ([]Pair, bool) {
	p, ok := pl.Paths[pathKey{x, missing}]
	return p, ok
}
