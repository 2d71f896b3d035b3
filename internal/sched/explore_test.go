package sched

import (
	"fmt"
	"strings"
)

// stepSystem builds a deterministic n-process system where process i
// takes steps[i] plain steps. The decision tree is the full
// interleaving tree of the step counts.
func stepSystem(steps []int) []ProcFunc {
	procs := make([]ProcFunc, len(steps))
	for i, k := range steps {
		k := k
		procs[i] = func(p *Proc) error {
			for s := 0; s < k; s++ {
				p.Step()
			}
			return nil
		}
	}
	return procs
}

// fingerprint renders an execution's decision sequence — the identity
// of one interleaving on the deterministic system.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "%d.", d.Pid)
	}
	return b.String()
}

// exploreAll runs the exhaustive explorer over a plain process factory
// and visits every execution, returning the execution count.
func exploreAll(factory func() []ProcFunc, visit func(*Result)) (int, error) {
	_, stats, err := Explore(func() Instance {
		return Instance{Procs: factory(), Leaf: func(r *Result) (any, error) {
			visit(r)
			return nil, nil
		}}
	}, Options{})
	return stats.Executions, err
}
