// Package schedtest provides the shared vocabulary of the memoized-vs-
// exhaustive differential test suites (sched, agreement, task): a
// multiset of outcome fingerprints used as the exploration aggregate
// on both sides of each comparison.
//
// The exhaustive side visits every leaf and counts its fingerprint;
// the memoized side produces the same Counts through Leaf/Merge
// contributions, reusing memoized subtree counts instead of
// re-visiting. The two multisets — and the execution totals — must be
// identical. Fingerprints must be determined by the leaf's canonical
// state and invariant under process relabelling (sorted outputs,
// sorted per-process aggregates), never raw decision sequences: a
// pruned subtree's leaves are reached through different decision
// sequences than the memoized twin that stands in for them.
package schedtest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sched"
)

// Counts is a multiset of outcome fingerprints: the differential
// suites' exploration aggregate.
type Counts map[string]int

// Add counts one outcome.
func (c Counts) Add(fp string) { c[fp]++ }

// Total returns the multiset's cardinality (the execution count).
func (c Counts) Total() int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// Leaf adapts a fingerprint function into an Instance.Leaf
// contribution: a fresh one-element Counts per leaf.
func Leaf(fp func(*sched.Result) string) func(*sched.Result) (any, error) {
	return func(r *sched.Result) (any, error) {
		return Counts{fp(r): 1}, nil
	}
}

// Merge is the pure Options.Merge for Counts contributions: it
// returns a new multiset and never mutates its arguments, which stay
// live inside the memo table.
func Merge(a, b any) any {
	ca, cb := a.(Counts), b.(Counts)
	out := make(Counts, len(ca)+len(cb))
	for fp, n := range ca {
		out[fp] += n
	}
	for fp, n := range cb {
		out[fp] += n
	}
	return out
}

// AsCounts converts an exploration's aggregate back to Counts,
// treating nil (an empty exploration) as the empty multiset.
func AsCounts(v any) Counts {
	if v == nil {
		return Counts{}
	}
	return v.(Counts)
}

// Diff renders the difference between two multisets, empty when equal.
func Diff(got, want Counts) string {
	keys := map[string]bool{}
	for fp := range got {
		keys[fp] = true
	}
	for fp := range want {
		keys[fp] = true
	}
	var lines []string
	for fp := range keys {
		if got[fp] != want[fp] {
			lines = append(lines, fmt.Sprintf("  %q: got %d, want %d", fp, got[fp], want[fp]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// VisitAll runs the exhaustive explorer over a plain process factory
// and calls visit on every execution, returning the execution count:
// the oracle shape the protocol packages' tests check every
// interleaving with. factory and visit run in lockstep — each visit
// sees the instance the latest factory call built.
func VisitAll(factory func() []sched.ProcFunc, maxSteps int, visit func(*sched.Result)) (int, error) {
	_, stats, err := sched.Explore(func() sched.Instance {
		return sched.Instance{Procs: factory(), Leaf: func(r *sched.Result) (any, error) {
			visit(r)
			return nil, nil
		}}
	}, sched.Options{MaxSteps: maxSteps})
	return stats.Executions, err
}
