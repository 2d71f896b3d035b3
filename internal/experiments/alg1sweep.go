package experiments

import (
	"fmt"
	"sort"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// E2 is the Algorithm 1 exhaustive sweep: every crash-free interleaving
// of the two-process ε-agreement protocol, folded through the
// canonical-state memo into one order-insensitive aggregate that the
// table renders from.

// e2K and e2Inputs pin Figure 2's instance: Algorithm 1 with k = 4 on
// inputs (0, 1).
const e2K = 4

var e2Inputs = [2]uint64{0, 1}

// alg1SweepAgg is the order-insensitive aggregate of an Algorithm 1
// schedule-tree exploration — everything E2's table derives from. Seen
// is kept sorted; Merge is a union/sum/max fold, so subtree
// contributions combine in any grouping to the same value, which is
// what the memo's Merge contract requires.
type alg1SweepAgg struct {
	Execs    int
	Seen     []int
	WorstNum int
	MaxSteps int
}

// Merge folds b into a.
func (a *alg1SweepAgg) Merge(b *alg1SweepAgg) {
	a.Execs += b.Execs
	a.Seen = unionSorted(a.Seen, b.Seen)
	if b.WorstNum > a.WorstNum {
		a.WorstNum = b.WorstNum
	}
	if b.MaxSteps > a.MaxSteps {
		a.MaxSteps = b.MaxSteps
	}
}

// unionSorted merges two sorted distinct-int slices into one.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// alg1Collector accumulates an alg1SweepAgg from explorer visits, one
// execution at a time.
type alg1Collector struct {
	execs    int
	seen     map[int]bool
	worstNum int
	maxSteps int
}

func newAlg1Collector() *alg1Collector {
	return &alg1Collector{seen: make(map[int]bool)}
}

func (c *alg1Collector) visit(ar *agreement.Alg1Run) {
	c.execs++
	for i := 0; i < 2; i++ {
		c.seen[ar.Outs[i].Num] = true
		if ar.Result.Steps[i] > c.maxSteps {
			c.maxSteps = ar.Result.Steps[i]
		}
	}
	d := ar.Outs[0].Num - ar.Outs[1].Num
	if d < 0 {
		d = -d
	}
	if d > c.worstNum {
		c.worstNum = d
	}
}

func (c *alg1Collector) agg() *alg1SweepAgg {
	seen := make([]int, 0, len(c.seen))
	for n := range c.seen {
		seen = append(seen, n)
	}
	sort.Ints(seen)
	return &alg1SweepAgg{Execs: c.execs, Seen: seen, WorstNum: c.worstNum, MaxSteps: c.maxSteps}
}

// finishE2 renders the E2 family's table at one (k, inputs) point from
// a fully-merged aggregate — the one rendering path shared by the
// registry runner and every parameterized point, which is what makes
// their bytes identical. At the default point
// (e2K, e2Inputs) the rendering is byte-for-byte Figure 2's.
func finishE2(a *alg1SweepAgg, k int, inputs [2]uint64) (*Table, error) {
	den := agreement.Alg1Den(k)
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("Figure 2 / Prop 5.1 — Algorithm 1 executions, k=%d, inputs (%d,%d)", k, inputs[0], inputs[1]),
		Headers: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"interleavings", itoa(a.Execs)},
		[]string{"distinct decisions", itoa(len(a.Seen))},
		[]string{"decision range", fmt.Sprintf("0..%s by 1/%d", rat(den, den), den)},
		[]string{"worst co-final distance", rat(a.WorstNum, den)},
		[]string{"max steps per process", fmt.Sprintf("%d (bound 2k+3 = %d)", a.MaxSteps, agreement.Alg1MaxSteps(k))},
	)
	if a.WorstNum > 1 {
		t.Notes = append(t.Notes, "VIOLATION: co-final decisions exceed ε")
	} else {
		t.Notes = append(t.Notes, "all co-final decision pairs within ε = 1/(2k+1); full range covered")
	}
	return t, nil
}

// alg1LeafAgg extracts one execution's contribution to an Algorithm 1
// sweep aggregate: a fresh single-run alg1SweepAgg built through the
// collector. It is determined by the run's final state (outputs,
// per-process step counts) and invariant under process relabelling
// (set union, absolute difference, max), as the memo contract
// requires.
func alg1LeafAgg(ar *agreement.Alg1Run) (any, error) {
	c := newAlg1Collector()
	c.visit(ar)
	return c.agg(), nil
}

// mergeAlg1Agg is the pure sched.Options.Merge over Algorithm 1 sweep
// aggregates: it folds both into a fresh zero aggregate, leaving the
// arguments — live memo entries — untouched. (alg1SweepAgg.Merge
// mutates its receiver, which is why the explorer merges into a clone.)
func mergeAlg1Agg(a, b any) any {
	out := &alg1SweepAgg{}
	out.Merge(a.(*alg1SweepAgg))
	out.Merge(b.(*alg1SweepAgg))
	return out
}

// sweepAlg1 explores the whole Algorithm 1 schedule tree at (k,
// inputs) through the canonical-state memo and returns the sweep
// aggregate with the explorer's counters — the one implementation
// behind E2's runner, its family points, and E16.
func sweepAlg1(k int, inputs [2]uint64) (*alg1SweepAgg, sched.Stats, error) {
	opts := sched.Options{Memo: true, Merge: mergeAlg1Agg}
	agg, stats, err := agreement.ExploreAlg1(k, inputs, opts, alg1LeafAgg)
	if err != nil {
		return nil, stats, err
	}
	a, _ := agg.(*alg1SweepAgg)
	if a == nil {
		a = &alg1SweepAgg{Seen: []int{}}
	}
	return a, stats, nil
}

// runE2At evaluates the E2 family whole at one (k, inputs) point —
// the registry runner at the default point, and the Family.Run behind
// GET /experiments/E2?k=...
func runE2At(k int, inputs [2]uint64) (*Table, error) {
	a, stats, err := sweepAlg1(k, inputs)
	if err != nil {
		return nil, err
	}
	t, err := finishE2(a, k, inputs)
	if t != nil {
		t.memo = stats
	}
	return t, err
}
